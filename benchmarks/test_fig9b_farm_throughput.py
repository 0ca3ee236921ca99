"""Figure 9b: FaRM KV store throughput, 15 reader threads.

Paper claim: LightSABRes deliver 30-60 % higher application throughput
than the per-cache-line-versions baseline, across 128 B-8 KB objects.
"""

from conftest import run_once, show

from repro.experiments import registry, run_sweep

SIZES = (128, 512, 1024, 4096, 8192)


def test_fig9b_farm_throughput(benchmark, scale):
    result = run_once(
        benchmark,
        run_sweep,
        registry.get("fig9b"),
        scale=scale,
        axes={"object_size": SIZES},
    )
    rows = result.rows
    show("Fig. 9b: FaRM KV throughput (GB/s)", result.table())
    for row in rows:
        assert 0.15 <= row["improvement"] <= 0.9  # paper: 0.30-0.60
    improvements = {r["object_size"]: round(r["improvement"], 3) for r in rows}
    benchmark.extra_info["improvement_by_size"] = improvements
    benchmark.extra_info["paper_bands"] = "+30-60%"
