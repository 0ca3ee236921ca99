"""Figure 7: microbenchmark latency (7a) and throughput (7b).

7a (one thread, synchronous ops, remote data memory-resident):
  * single-block transfers: remote reads == both LightSABRes variants;
  * LightSABRes-no-speculation pays the serialized version read
    (~one memory access, up to ~40 % for two-block SABRes);
  * LightSABRes match remote reads, with a small gap above 2 KB from
    pinning each SABRe to a single R2P2.

7b (16 threads, asynchronous ops): remote reads and LightSABRes have
identical throughput curves, reaching the fabric-limited peak.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.common.config import SabreMode, sabre_cluster
from repro.experiments import ExperimentSpec, Variant, register
from repro.harness.common import derive_memory_resident
from repro.workloads.generators import FIG7_SIZES
from repro.workloads.microbench import MicrobenchConfig, run_microbench

HEADERS_7A = ("object_size", "remote_read_ns", "sabre_no_spec_ns", "sabre_ns")
HEADERS_7B = ("object_size", "remote_read_gbps", "sabre_gbps")


def _fig7a_derive(params: Dict[str, Any]) -> Dict[str, Any]:
    params["cluster"] = sabre_cluster(mode=params["mode"])
    return derive_memory_resident(params)


def _fig7a_point(ctx) -> Dict:
    cfg = MicrobenchConfig.from_params(ctx.params, ctx.scale)
    return {ctx.variant: run_microbench(cfg).mean_transfer_latency_ns}


FIG7A_SPEC = register(
    ExperimentSpec(
        name="fig7a",
        description="one-sided operation latency: remote read vs SABRe "
        "variants across object sizes",
        axes={"object_size": FIG7_SIZES},
        variants=(
            Variant(
                "remote_read_ns",
                {"mechanism": "remote_read", "mode": SabreMode.SPECULATIVE},
            ),
            Variant(
                "sabre_no_spec_ns",
                {"mechanism": "sabre", "mode": SabreMode.NO_SPECULATION},
            ),
            Variant(
                "sabre_ns",
                {"mechanism": "sabre", "mode": SabreMode.SPECULATIVE},
            ),
        ),
        defaults={"seed": 5, "duration_ns": 60_000.0, "warmup_ns": 5_000.0},
        derive=_fig7a_derive,
        headers=HEADERS_7A,
        point_fn=_fig7a_point,
    )
)


def _fig7b_point(ctx) -> Dict:
    cfg = MicrobenchConfig.from_params(ctx.params, ctx.scale)
    return {ctx.variant: run_microbench(cfg).goodput_gbps}


FIG7B_SPEC = register(
    ExperimentSpec(
        name="fig7b",
        description="asynchronous peak throughput: remote read vs SABRe "
        "across object sizes",
        axes={"object_size": FIG7_SIZES},
        variants=(
            Variant("remote_read_gbps", {"mechanism": "remote_read"}),
            Variant("sabre_gbps", {"mechanism": "sabre"}),
        ),
        defaults={
            "seed": 5,
            "readers": 16,
            "async_window": 8,
            "duration_ns": 80_000.0,
            "warmup_ns": 10_000.0,
        },
        derive=derive_memory_resident,
        headers=HEADERS_7B,
        point_fn=_fig7b_point,
    )
)
