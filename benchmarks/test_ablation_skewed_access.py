"""Ablation: skewed (Zipfian) key popularity.

The paper's microbenchmark accesses objects uniformly; real online
services (its motivating workload) are heavily skewed.  Hot keys
concentrate reader-writer conflicts, raising abort/retry rates — this
bench shows the SABRe advantage survives the hostile regime and that
atomicity still holds.

Runs the registered ``ablation_skewed_access`` experiment spec.
"""

from conftest import run_once, show

from repro.experiments import registry, run_sweep
from repro.harness.report import format_table

THETAS = (0.0, 0.99)


def test_skewed_access(benchmark, scale):
    rows = run_once(
        benchmark, run_sweep, registry.get("ablation_skewed_access"), scale=scale
    ).rows
    show(
        "Ablation: uniform vs Zipfian key popularity (1 KB, 8 writers)",
        format_table(
            ("zipf_theta", "mechanism", "goodput_gbps", "conflicts", "ops",
             "torn_reads"),
            rows,
        ),
    )
    by = {(r["zipf_theta"], r["mechanism"]): r for r in rows}
    # Skew concentrates conflicts...
    assert (
        by[(0.99, "sabre")]["conflicts"] / max(by[(0.99, "sabre")]["ops"], 1)
        > by[(0.0, "sabre")]["conflicts"] / max(by[(0.0, "sabre")]["ops"], 1)
    )
    # ...but SABRes stay ahead of software atomicity and stay safe.
    for theta in THETAS:
        assert (
            by[(theta, "sabre")]["goodput_gbps"]
            > by[(theta, "percl_versions")]["goodput_gbps"]
        )
    for row in rows:
        assert row["torn_reads"] == 0
    benchmark.extra_info["sabre_gbps_by_theta"] = {
        theta: round(by[(theta, "sabre")]["goodput_gbps"], 2) for theta in THETAS
    }
