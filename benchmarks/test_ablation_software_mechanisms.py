"""Ablation (§2.1): the software atomicity mechanisms SABRes replace.

Pilaf's checksums cost ~a dozen CPU cycles per byte; FaRM's
per-cache-line versions are far cheaper but still scale with object
size and break zero-copy.  LightSABRes remove the check entirely.

Runs the registered ``ablation_software_mechanisms`` experiment spec.
"""

from conftest import run_once, show

from repro.experiments import registry, run_sweep
from repro.harness.report import format_table

MECHANISMS = ("sabre", "percl_versions", "checksum")


def test_software_mechanism_ladder(benchmark, scale):
    rows = run_once(
        benchmark, run_sweep, registry.get("ablation_software_mechanisms"), scale=scale
    ).rows
    show(
        "Ablation: atomicity mechanism cost ladder (2 KB objects)",
        format_table(("mechanism", "mean_latency_ns", "goodput_gbps"), rows),
    )
    by_mech = {r["mechanism"]: r for r in rows}
    sabre = by_mech["sabre"]["mean_latency_ns"]
    percl = by_mech["percl_versions"]["mean_latency_ns"]
    checksum = by_mech["checksum"]["mean_latency_ns"]
    assert sabre < percl < checksum
    # §2.1: checksums cost microseconds for KB-sized objects.
    assert checksum > 5 * percl
    benchmark.extra_info["latency_ladder_ns"] = {
        m: round(by_mech[m]["mean_latency_ns"], 1) for m in MECHANISMS
    }
