"""Ablation (§3.2): destination-side locking vs optimistic SABRes.

For read-dominated workloads OCC wins: locking serializes readers
against writers (the R2P2 spins on write-locked objects) while
optimistic SABRes proceed and rarely retry.  Locking's consolation:
it never aborts.

Runs the registered ``ablation_locking_vs_occ`` experiment spec.
"""

from conftest import run_once, show

from repro.experiments import registry, run_sweep
from repro.harness.report import format_table


def test_locking_vs_occ(benchmark, scale):
    rows = run_once(
        benchmark, run_sweep, registry.get("ablation_locking_vs_occ"), scale=scale
    ).rows
    show(
        "Ablation: destination-side OCC vs locking (8 readers, 2 writers)",
        format_table(
            ("mode", "goodput_gbps", "mean_latency_ns", "aborts",
             "lock_waits", "torn_reads"),
            rows,
        ),
    )
    occ, locking = rows[0], rows[1]
    assert occ["goodput_gbps"] >= locking["goodput_gbps"]
    assert locking["aborts"] == 0  # conflict prevention, not detection
    assert occ["aborts"] > 0
    assert locking["lock_waits"] > 0
    assert occ["torn_reads"] == locking["torn_reads"] == 0
    benchmark.extra_info["occ_over_locking"] = round(
        occ["goodput_gbps"] / max(locking["goodput_gbps"], 1e-9), 3
    )
