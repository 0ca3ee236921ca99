"""Figure 1: E2E latency breakdown of per-cache-line-version atomic
reads on FaRM over soNUMA.

Paper claim: version stripping is ~10 % of end-to-end latency at 128 B
and grows nearly linearly, reaching about half the latency at 8 KB.
"""

from conftest import show

from repro.experiments import registry, run_sweep


def test_fig1_software_overhead(scale):
    result = run_sweep(registry.get("fig1"), scale=scale)
    rows = result.rows
    show("Fig. 1: FaRM perCL-version read latency breakdown", result.table())
    by_size = {r["object_size"]: r for r in rows}
    small, large = by_size[128], by_size[8192]
    # Shares grow monotonically from ~10 % to ~half.
    assert small["stripping_share"] < 0.25
    assert large["stripping_share"] > 0.40
    shares = [r["stripping_share"] for r in rows]
    assert shares == sorted(shares)
