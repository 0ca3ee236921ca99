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

from typing import Dict

from repro.common.config import ClusterConfig, SabreMode
from repro.experiments import ExperimentSpec, Variant, register
from repro.harness.common import objects_for_memory_residency
from repro.harness.report import scaled_duration
from repro.workloads.generators import FIG7_SIZES
from repro.workloads.microbench import MicrobenchConfig, run_microbench

HEADERS_7A = ("object_size", "remote_read_ns", "sabre_no_spec_ns", "sabre_ns")
HEADERS_7B = ("object_size", "remote_read_gbps", "sabre_gbps")


def _fig7a_point(ctx) -> Dict:
    p = ctx.params
    size = p["object_size"]
    cfg = MicrobenchConfig(
        mechanism=p["mechanism"],
        object_size=size,
        n_objects=objects_for_memory_residency(size),
        readers=1,
        writers=0,
        duration_ns=scaled_duration(60_000.0, ctx.scale),
        warmup_ns=5_000.0,
        seed=p["seed"],
        cluster=ClusterConfig().with_sabre_mode(p["mode"]),
    )
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
        defaults={"seed": 5},
        headers=HEADERS_7A,
        point_fn=_fig7a_point,
        base_seed=5,
    )
)


def _fig7b_point(ctx) -> Dict:
    p = ctx.params
    size = p["object_size"]
    cfg = MicrobenchConfig(
        mechanism=p["mechanism"],
        object_size=size,
        n_objects=objects_for_memory_residency(size),
        readers=p["readers"],
        writers=0,
        async_window=p["window"],
        duration_ns=scaled_duration(80_000.0, ctx.scale),
        warmup_ns=10_000.0,
        seed=p["seed"],
    )
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
        defaults={"seed": 5, "readers": 16, "window": 8},
        headers=HEADERS_7B,
        point_fn=_fig7b_point,
        base_seed=5,
    )
)
