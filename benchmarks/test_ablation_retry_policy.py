"""Ablation (§5.1): hardware retry vs software-exposed aborts.

The paper rejects transparent hardware retry: it raises R2P2 occupancy
and can only ever be attempted before any reply has left (the
request-reply invariant).  This bench quantifies both policies under
contention: hardware retry salvages some conflicts (fewer CQ failures)
but cannot eliminate retries and keeps the R2P2 busy longer.

Runs the registered ``ablation_retry_policy`` experiment spec.
"""

from conftest import run_once, show

from repro.experiments import registry, run_sweep
from repro.harness.report import format_table


def test_retry_policy(benchmark, scale):
    rows = run_once(
        benchmark, run_sweep, registry.get("ablation_retry_policy"), scale=scale
    ).rows
    show(
        "Ablation: abort exposure policy under contention",
        format_table(
            ("policy", "goodput_gbps", "cq_failures", "hw_retries", "torn_reads"),
            rows,
        ),
    )
    software, hardware = rows[0], rows[1]
    assert hardware["hw_retries"] > 0
    assert software["hw_retries"] == 0
    # Retrying in hardware hides some failures from software...
    assert hardware["cq_failures"] <= software["cq_failures"]
    # ...and is always safe.
    assert software["torn_reads"] == hardware["torn_reads"] == 0
    benchmark.extra_info["hw_retries"] = hardware["hw_retries"]
    benchmark.extra_info["cq_failures_sw_vs_hw"] = (
        software["cq_failures"],
        hardware["cq_failures"],
    )
