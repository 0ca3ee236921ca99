"""Figure 10: FaRM local read throughput, unmodified store vs the
per-cache-line-versions layout.

Paper claim: keeping the object store unmodified (which SABRes enable)
speeds up local reads by 20 % (128 B), 53 % (1 KB), up to 2.1x (8 KB).
"""

from conftest import show

from repro.experiments import registry, run_sweep


def test_fig10_local_reads(scale):
    result = run_sweep(registry.get("fig10"), scale=scale)
    rows = result.rows
    show("Fig. 10: local read throughput (GB/s)", result.table())
    by_size = {r["object_size"]: r for r in rows}
    assert 1.05 <= by_size[128]["speedup"] <= 1.5  # paper: 1.20
    assert 1.2 <= by_size[1024]["speedup"] <= 1.8  # paper: 1.53
    assert 1.6 <= by_size[8192]["speedup"] <= 2.6  # paper: 2.1
    speedups = [r["speedup"] for r in rows]
    assert speedups == sorted(speedups)
