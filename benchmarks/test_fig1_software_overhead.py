"""Figure 1: E2E latency breakdown of per-cache-line-version atomic
reads on FaRM over soNUMA.

Paper claim: version stripping is ~10 % of end-to-end latency at 128 B
and grows nearly linearly, reaching about half the latency at 8 KB.
"""

from conftest import run_once, show

from repro.experiments import registry, run_sweep


def test_fig1_software_overhead(benchmark, scale):
    result = run_once(benchmark, run_sweep, registry.get("fig1"), scale=scale)
    rows = result.rows
    show("Fig. 1: FaRM perCL-version read latency breakdown", result.table())
    by_size = {r["object_size"]: r for r in rows}
    small, large = by_size[128], by_size[8192]
    # Shares grow monotonically from ~10 % to ~half.
    assert small["stripping_share"] < 0.25
    assert large["stripping_share"] > 0.40
    shares = [r["stripping_share"] for r in rows]
    assert shares == sorted(shares)
    benchmark.extra_info["stripping_share_128B"] = round(small["stripping_share"], 3)
    benchmark.extra_info["stripping_share_8KB"] = round(large["stripping_share"], 3)
    benchmark.extra_info["paper_bands"] = "10% at 128B -> ~50% at 8KB"
