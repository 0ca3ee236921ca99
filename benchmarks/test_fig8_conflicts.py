"""Figure 8: application throughput under growing conflict rates.

Paper claims: throughput degrades as writers are added; LightSABRes
beat per-cache-line versions everywhere; the advantage grows with
object size (15-97 % across 128 B-8 KB).
"""

from conftest import run_once, show

from repro.experiments import registry, run_sweep


def test_fig8_conflicts(benchmark, scale):
    result = run_once(
        benchmark,
        run_sweep,
        registry.get("fig8"),
        scale=scale,
        axes={"writers": (0, 8, 16)},
    )
    rows = result.rows
    show("Fig. 8: throughput vs writer threads (GB/s)", result.table())
    by_key = {(r["object_size"], r["writers"]): r for r in rows}

    for row in rows:
        assert row["sabre_advantage"] > 0  # SABRes always ahead

    # The advantage grows with object size (at zero writers).
    adv = [by_key[(s, 0)]["sabre_advantage"] for s in (128, 1024, 8192)]
    assert adv[0] < adv[1] < adv[2]

    # Conflicts appear and throughput degrades as writers are added.
    assert by_key[(1024, 16)]["sabre_gbps"] < by_key[(1024, 0)]["sabre_gbps"]
    assert by_key[(1024, 16)]["sabre_aborts"] > 0
    assert by_key[(1024, 16)]["percl_conflicts"] > 0

    benchmark.extra_info["advantage_by_size_no_writers"] = {
        s: round(by_key[(s, 0)]["sabre_advantage"], 3) for s in (128, 1024, 8192)
    }
    benchmark.extra_info["paper_bands"] = "15% (128B) -> 87-97% (8KB)"
