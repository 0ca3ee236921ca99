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
from repro.harness.common import objects_for_llc_residency
from repro.harness.report import scaled_duration
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
    p = ctx.params
    cfg = MicrobenchConfig(
        mechanism=p["mechanism"],
        object_size=p["object_size"],
        n_objects=objects_for_llc_residency(),
        readers=16,
        writers=p["writers"],
        duration_ns=scaled_duration(120_000.0, ctx.scale),
        warmup_ns=15_000.0,
        seed=p["seed"],
        # Writers pace themselves (the paper's writer loop has its own
        # application work); keeps conflict rates in the regime Fig. 8
        # explores rather than saturating.
        writer_think_ns=1500.0,
    )
    result = run_microbench(cfg)
    if p["mechanism"] == "sabre":
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
        defaults={"seed": 11},
        finalize_row=_fig8_finalize,
        headers=HEADERS,
        point_fn=_fig8_point,
        base_seed=11,
    )
)
