"""Figure 9: FaRM key-value store, baseline vs LightSABRes.

9a: end-to-end lookup latency breakdown (one reader).  LightSABRes
remove stripping and buffer management entirely and shrink the
framework component (smaller instruction footprint); the application
component grows (the object is LLC- rather than L1-resident).  Net:
-26 % at 128 B to -52 % at 8 KB (paper: 35 % and 52 %).

9b: throughput with 15 reader threads: +30-60 % depending on size.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.common.config import check_choice
from repro.experiments import ExperimentSpec, Variant, register
from repro.harness.common import derive_memory_resident
from repro.objstore.farm import FarmConfig, run_farm
from repro.workloads.generators import FIG1_SIZES

HEADERS_9A = (
    "object_size",
    "build",
    "transfer_ns",
    "framework_ns",
    "stripping_ns",
    "application_ns",
    "total_ns",
)
HEADERS_9B = ("object_size", "percl_gbps", "sabre_gbps", "improvement")


#: Both panels run FaRM's lookup loop over the same window.
_FIG9_DEFAULTS = {"seed": 3, "duration_ns": 150_000.0, "warmup_ns": 10_000.0}


#: Fig. 9a's two builds of the FaRM lookup path.
_BUILDS = ("percl", "sabre")


def _fig9a_derive(params: Dict[str, Any]) -> Dict[str, Any]:
    params["use_sabre"] = check_choice("build", params["build"], _BUILDS) == "sabre"
    return derive_memory_resident(params)


def _fig9a_point(ctx) -> Dict:
    result = run_farm(FarmConfig.from_params(ctx.params, ctx.scale))
    means = result.breakdown.means()
    return {
        "transfer_ns": means["transfer"],
        "framework_ns": means["framework"],
        "stripping_ns": means["stripping"],
        "application_ns": means["application"],
        "total_ns": result.mean_latency_ns,
    }


FIG9A_SPEC = register(
    ExperimentSpec(
        name="fig9a",
        description="FaRM KV lookup latency breakdown: perCL vs SABRe builds",
        axes={"object_size": FIG1_SIZES, "build": _BUILDS},
        defaults=_FIG9_DEFAULTS,
        derive=_fig9a_derive,
        headers=HEADERS_9A,
        point_fn=_fig9a_point,
        base_seed=3,
    )
)


def _fig9b_point(ctx) -> Dict:
    result = run_farm(FarmConfig.from_params(ctx.params, ctx.scale))
    return {f"{ctx.variant}_gbps": result.goodput_gbps}


def _fig9b_finalize(row: Dict) -> Dict:
    row["improvement"] = (
        row["sabre_gbps"] / row["percl_gbps"] - 1.0
        if row["percl_gbps"] > 0
        else float("nan")
    )
    return row


FIG9B_SPEC = register(
    ExperimentSpec(
        name="fig9b",
        description="FaRM KV throughput: perCL vs SABRe builds",
        axes={"object_size": FIG1_SIZES},
        variants=(Variant("percl"), Variant("sabre", {"use_sabre": True})),
        defaults={**_FIG9_DEFAULTS, "readers": 15},
        derive=derive_memory_resident,
        finalize_row=_fig9b_finalize,
        headers=HEADERS_9B,
        point_fn=_fig9b_point,
        base_seed=3,
    )
)
