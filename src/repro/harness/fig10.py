"""Figure 10: FaRM local read throughput, per-cache-line-versions
layout vs the unmodified object store that SABRes enable.

Paper: +20 % at 128 B, +53 % at 1 KB, 2.1x at 8 KB (15 reader threads,
read-only key-value lookup kernel on local memory).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import ExperimentSpec, Variant, register
from repro.objstore.local import LocalReadConfig, run_local_reads
from repro.workloads.generators import FIG1_SIZES

HEADERS = ("object_size", "percl_gbps", "unmodified_gbps", "speedup")


def _fig10_point(ctx) -> Dict:
    cfg = LocalReadConfig.from_params(ctx.params, ctx.scale)
    return {ctx.variant: run_local_reads(cfg).goodput_gbps}


def _fig10_finalize(row: Dict) -> Dict:
    row["speedup"] = (
        row["unmodified_gbps"] / row["percl_gbps"]
        if row["percl_gbps"] > 0
        else float("nan")
    )
    return row


FIG10_SPEC = register(
    ExperimentSpec(
        name="fig10",
        description="local read throughput: perCL layout vs unmodified store",
        axes={"object_size": FIG1_SIZES},
        variants=(
            Variant("percl_gbps", {"percl_layout": True}),
            Variant("unmodified_gbps"),
        ),
        defaults={"seed": 9, "duration_ns": 120_000.0, "warmup_ns": 15_000.0},
        finalize_row=_fig10_finalize,
        headers=HEADERS,
        point_fn=_fig10_point,
    )
)
