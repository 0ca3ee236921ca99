"""Ablation (Table 1 / §2.1): source-side locking (DrTM cell) vs
source-side OCC (FaRM cell) vs destination-side hardware (SABRes).

Source locking acquires the object's version-word lock with a remote
CAS and releases it with a remote write: two extra network round trips
per read, the drawback that motivates OCC — and, once software checks
become the bottleneck too, hardware SABRes.

Runs the registered ``ablation_source_locking`` experiment spec.
"""

from conftest import show

from repro.experiments import registry, run_sweep
from repro.experiments.runner import format_table


def test_source_locking_vs_alternatives(scale):
    rows = run_sweep(registry.get("ablation_source_locking"), scale=scale).rows
    show(
        "Ablation: Table 1 cells on one workload (512 B, 4 readers, 2 writers)",
        format_table(
            ("mechanism", "mean_latency_ns", "goodput_gbps", "retries",
             "torn_reads"),
            rows,
        ),
    )
    by_mech = {r["mechanism"]: r for r in rows}
    sabre = by_mech["sabre"]["mean_latency_ns"]
    percl = by_mech["percl_versions"]["mean_latency_ns"]
    drtm = by_mech["drtm_lock"]["mean_latency_ns"]
    # Destination hardware < source OCC < source locking.
    assert sabre < percl < drtm
    # The two extra round trips roughly double-to-triple the latency.
    assert drtm > 1.8 * sabre
    # Everyone is safe; only the costs differ.
    for row in rows:
        assert row["torn_reads"] == 0
