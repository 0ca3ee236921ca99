"""Ablation (§2.1): the software atomicity mechanisms SABRes replace.

Pilaf's checksums cost ~a dozen CPU cycles per byte; FaRM's
per-cache-line versions are far cheaper but still scale with object
size and break zero-copy.  LightSABRes remove the check entirely.

Runs the registered ``ablation_software_mechanisms`` experiment spec.
"""

from conftest import show

from repro.experiments import registry, run_sweep
from repro.experiments.runner import format_table


def test_software_mechanism_ladder(scale):
    rows = run_sweep(registry.get("ablation_software_mechanisms"), scale=scale).rows
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
