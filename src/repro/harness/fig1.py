"""Figure 1: end-to-end latency breakdown of atomic remote object reads
using FaRM's per-cache-line-versions mechanism over soNUMA.

The paper's claim: the software atomicity check (version stripping) is
~10 % of end-to-end latency for 128 B objects but scales nearly
linearly with object size, reaching ~half of the end-to-end latency
for 8 KB objects, while the soNUMA transfer itself scales sublinearly.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import ExperimentSpec, register
from repro.harness.common import derive_memory_resident
from repro.objstore.farm import FarmConfig, run_farm
from repro.workloads.generators import FIG1_SIZES

HEADERS = (
    "object_size",
    "transfer_ns",
    "framework_app_ns",
    "stripping_ns",
    "total_ns",
    "stripping_share",
)


def _fig1_point(ctx) -> Dict:
    cfg = FarmConfig.from_params(ctx.params, ctx.scale)
    means = run_farm(cfg).breakdown.means()
    framework_app = means["framework"] + means["application"]
    total = means["transfer"] + framework_app + means["stripping"]
    return {
        "transfer_ns": means["transfer"],
        "framework_app_ns": framework_app,
        "stripping_ns": means["stripping"],
        "total_ns": total,
        "stripping_share": means["stripping"] / total,
    }


FIG1_SPEC = register(
    ExperimentSpec(
        name="fig1",
        description="FaRM perCL-version read latency breakdown vs object size",
        axes={"object_size": FIG1_SIZES},
        defaults={"duration_ns": 150_000.0, "warmup_ns": 10_000.0},
        derive=derive_memory_resident,
        headers=HEADERS,
        point_fn=_fig1_point,
    )
)
