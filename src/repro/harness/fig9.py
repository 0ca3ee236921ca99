"""Figure 9: FaRM key-value store, baseline vs LightSABRes.

9a: end-to-end lookup latency breakdown (one reader).  LightSABRes
remove stripping and buffer management entirely and shrink the
framework component (smaller instruction footprint); the application
component grows (the object is LLC- rather than L1-resident).  Net:
-26 % at 128 B to -52 % at 8 KB (paper: 35 % and 52 %).

9b: throughput with 15 reader threads: +30-60 % depending on size.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import ExperimentSpec, Variant, register
from repro.harness.common import objects_for_memory_residency
from repro.harness.report import scaled_duration
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


def _farm_cfg(size: int, use_sabre: bool, readers: int, scale: float, seed: int):
    return FarmConfig(
        use_sabre=use_sabre,
        object_size=size,
        n_objects=objects_for_memory_residency(size),
        readers=readers,
        duration_ns=scaled_duration(150_000.0, scale),
        warmup_ns=10_000.0,
        seed=seed,
    )


def _fig9a_point(ctx) -> Dict:
    p = ctx.params
    use_sabre = p["build"] == "sabre"
    result = run_farm(
        _farm_cfg(p["object_size"], use_sabre, 1, ctx.scale, p["seed"])
    )
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
        axes={"object_size": FIG1_SIZES, "build": ("percl", "sabre")},
        defaults={"seed": 3},
        headers=HEADERS_9A,
        point_fn=_fig9a_point,
        base_seed=3,
    )
)


def _fig9b_point(ctx) -> Dict:
    p = ctx.params
    result = run_farm(
        _farm_cfg(
            p["object_size"], ctx.variant == "sabre", p["readers"], ctx.scale,
            p["seed"],
        )
    )
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
        variants=(Variant("percl"), Variant("sabre")),
        defaults={"seed": 3, "readers": 15},
        finalize_row=_fig9b_finalize,
        headers=HEADERS_9B,
        point_fn=_fig9b_point,
        base_seed=3,
    )
)
