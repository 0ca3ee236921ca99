"""Ablation (§5.1): pinning each SABRe to a single R2P2.

The paper pins SABRes to one R2P2 and accepts a small latency penalty
for large transfers rather than striping a SABRe across R2P2s (which
would need multi-R2P2 atomicity coordination).  This bench quantifies
the cost of that choice: the pinned SABRe vs the per-block-striped
remote read (a lower bound on any striped-SABRe design — it does the
same data movement with zero atomicity work).

Runs the registered ``ablation_r2p2_distribution`` experiment spec
(which reuses the fig7a point function on a 3-size grid).
"""

from conftest import run_once, show

from repro.experiments import registry, run_sweep
from repro.harness.report import format_table


def test_r2p2_distribution(benchmark, scale):
    rows = run_once(
        benchmark, run_sweep, registry.get("ablation_r2p2_distribution"), scale=scale
    ).rows
    show(
        "Ablation: single-R2P2 pinning vs striped lower bound",
        format_table(
            ("object_size", "pinned_sabre_ns", "striped_lower_bound_ns",
             "pinning_cost"),
            rows,
        ),
    )
    # The pinning cost is small at every size (paper: a few percent,
    # visible only above 2 KB) — the design choice is cheap.
    for row in rows:
        assert -0.05 <= row["pinning_cost"] < 0.20
    benchmark.extra_info["pinning_cost_by_size"] = {
        r["object_size"]: round(r["pinning_cost"], 3) for r in rows
    }
