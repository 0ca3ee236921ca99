"""Figure 8: conflict sensitivity.

16 reader threads access 100 LLC-resident objects uniformly at random
while 0-16 writer threads update CREW-partitioned subsets.  Throughput
degrades with conflict probability for both mechanisms; the SABRe
advantage *shrinks* with writers for small objects (retries dominate)
and *grows* for large ones (each software retry re-pays the
size-proportional strip).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import ExperimentSpec, Variant, register
from repro.workloads.generators import FIG8_SIZES
from repro.workloads.microbench import MicrobenchConfig, run_microbench

HEADERS = (
    "object_size",
    "writers",
    "sabre_gbps",
    "percl_gbps",
    "sabre_advantage",
    "sabre_aborts",
    "percl_conflicts",
)

WRITER_COUNTS = (0, 4, 8, 12, 16)


def _fig8_point(ctx) -> Dict:
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    if ctx.params["mechanism"] == "sabre":
        return {
            "sabre_gbps": result.goodput_gbps,
            "sabre_aborts": result.sabre_aborts,
        }
    return {
        "percl_gbps": result.goodput_gbps,
        "percl_conflicts": result.software_conflicts,
    }


def _fig8_finalize(row: Dict) -> Dict:
    row["sabre_advantage"] = (
        row["sabre_gbps"] / row["percl_gbps"] - 1.0
        if row["percl_gbps"] > 0
        else float("nan")
    )
    return row


FIG8_SPEC = register(
    ExperimentSpec(
        name="fig8",
        description="conflict sensitivity: SABRe vs perCL throughput under "
        "0-16 CREW writers",
        axes={"object_size": FIG8_SIZES, "writers": WRITER_COUNTS},
        variants=(
            Variant("sabre", {"mechanism": "sabre"}),
            Variant("percl", {"mechanism": "percl_versions"}),
        ),
        defaults={
            "seed": 11,
            # The store is limited to 100 objects so all accesses are
            # LLC-resident at the destination (§7.2), whatever the size.
            "n_objects": 100,
            "readers": 16,
            "duration_ns": 120_000.0,
            "warmup_ns": 15_000.0,
            # Writers pace themselves (the paper's writer loop has its
            # own application work); keeps conflict rates in the regime
            # Fig. 8 explores rather than saturating.
            "writer_think_ns": 1500.0,
        },
        finalize_row=_fig8_finalize,
        headers=HEADERS,
        point_fn=_fig8_point,
    )
)
