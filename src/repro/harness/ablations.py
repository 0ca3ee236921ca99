"""The ablation studies as registered experiment specs.

Each spec reproduces one of the repo's ablation benchmarks (see
``benchmarks/test_ablation_*.py``); the benchmarks are thin wrappers
that run these specs and assert the paper's qualitative claims.  All
are registered, so the CLI can run any of them with ``--jobs``/
``--scale``/``--json-out``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.common.config import SabreMode, check_choice, sabre_cluster
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.harness.fig7 import FIG7A_SPEC
from repro.workloads.microbench import MicrobenchConfig, run_microbench


# ----------------------------------------------------------------------
# Table 1 cells on one contended workload (source locking vs OCC vs
# destination hardware)
# ----------------------------------------------------------------------


def _source_locking_point(ctx) -> Dict:
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    return {
        "mean_latency_ns": result.mean_op_latency_ns,
        "goodput_gbps": result.goodput_gbps,
        "retries": result.retries
        + result.sabre_aborts
        + result.software_conflicts,
        "torn_reads": result.undetected_violations,
    }


register(
    ExperimentSpec(
        name="ablation_source_locking",
        description="Table 1 cells on one workload: source locking (DrTM) "
        "vs source OCC (FaRM) vs destination hardware (SABRes)",
        axes={"mechanism": ("sabre", "percl_versions", "drtm_lock")},
        defaults={
            "seed": 13,
            "object_size": 512,
            "n_objects": 64,
            "readers": 4,
            "writers": 2,
            "writer_think_ns": 800.0,
            "duration_ns": 100_000.0,
            "warmup_ns": 12_000.0,
        },
        headers=(
            "mechanism",
            "mean_latency_ns",
            "goodput_gbps",
            "retries",
            "torn_reads",
        ),
        point_fn=_source_locking_point,
        base_seed=13,
    )
)


# ----------------------------------------------------------------------
# Uniform vs Zipfian key popularity
# ----------------------------------------------------------------------


def _skewed_access_point(ctx) -> Dict:
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    return {
        "goodput_gbps": result.goodput_gbps,
        "conflicts": result.sabre_aborts + result.software_conflicts,
        "ops": result.ops_completed,
        "torn_reads": result.undetected_violations,
    }


register(
    ExperimentSpec(
        name="ablation_skewed_access",
        description="uniform vs Zipfian (YCSB theta=0.99) key popularity "
        "under 8 CREW writers",
        axes={
            "zipf_theta": (0.0, 0.99),
            "mechanism": ("sabre", "percl_versions"),
        },
        defaults={
            "seed": 41,
            "readers": 16,
            "writers": 8,
            "writer_think_ns": 1500.0,
            "duration_ns": 100_000.0,
            "warmup_ns": 12_000.0,
        },
        headers=(
            "zipf_theta",
            "mechanism",
            "goodput_gbps",
            "conflicts",
            "ops",
            "torn_reads",
        ),
        point_fn=_skewed_access_point,
        base_seed=41,
    )
)


# ----------------------------------------------------------------------
# Software atomicity mechanism cost ladder
# ----------------------------------------------------------------------


def _software_mechanisms_point(ctx) -> Dict:
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    return {
        "mean_latency_ns": result.mean_op_latency_ns,
        "goodput_gbps": result.goodput_gbps,
    }


register(
    ExperimentSpec(
        name="ablation_software_mechanisms",
        description="atomicity mechanism cost ladder: SABRe vs perCL "
        "versions vs Pilaf checksums (2 KB objects)",
        axes={"mechanism": ("sabre", "percl_versions", "checksum")},
        defaults={
            "object_size": 2048,
            "n_objects": 256,
            "readers": 2,
            "duration_ns": 80_000.0,
            "warmup_ns": 10_000.0,
        },
        headers=("mechanism", "mean_latency_ns", "goodput_gbps"),
        point_fn=_software_mechanisms_point,
    )
)


# ----------------------------------------------------------------------
# Destination-side OCC vs locking
# ----------------------------------------------------------------------


def _locking_vs_occ_derive(params: Dict[str, Any]) -> Dict[str, Any]:
    params["cluster"] = sabre_cluster(mode=params["mode"])
    return params


def _locking_vs_occ_point(ctx) -> Dict:
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    return {
        "goodput_gbps": result.goodput_gbps,
        "mean_latency_ns": result.mean_op_latency_ns,
        "aborts": result.sabre_aborts,
        "lock_waits": result.destination_counters.get("lock_waits", 0),
        "torn_reads": result.undetected_violations,
    }


register(
    ExperimentSpec(
        name="ablation_locking_vs_occ",
        description="destination-side OCC (speculative SABRes) vs "
        "destination-side locking under contention",
        axes={"mode": (SabreMode.SPECULATIVE.value, SabreMode.LOCKING.value)},
        defaults={
            "n_objects": 64,
            "readers": 8,
            "writers": 2,
            "writer_think_ns": 1000.0,
            "duration_ns": 100_000.0,
            "warmup_ns": 12_000.0,
        },
        derive=_locking_vs_occ_derive,
        headers=(
            "mode",
            "goodput_gbps",
            "mean_latency_ns",
            "aborts",
            "lock_waits",
            "torn_reads",
        ),
        point_fn=_locking_vs_occ_point,
    )
)


# ----------------------------------------------------------------------
# Hardware retry vs software-exposed aborts
# ----------------------------------------------------------------------


#: Who sees an abort: software through the CQ, or nobody (the NI
#: retries it).
_RETRY_POLICIES = ("software_abort", "hardware_retry")


def _retry_policy_derive(params: Dict[str, Any]) -> Dict[str, Any]:
    policy = check_choice("policy", params["policy"], _RETRY_POLICIES)
    params["cluster"] = sabre_cluster(
        hardware_retry=policy == "hardware_retry"
    )
    return params


def _retry_policy_point(ctx) -> Dict:
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    return {
        "goodput_gbps": result.goodput_gbps,
        "cq_failures": result.sabre_aborts,
        "hw_retries": result.destination_counters.get("hardware_retries", 0),
        "torn_reads": result.undetected_violations,
    }


register(
    ExperimentSpec(
        name="ablation_retry_policy",
        description="abort exposure policy under contention: software-"
        "exposed CQ failures vs transparent hardware retry",
        axes={"policy": _RETRY_POLICIES},
        defaults={
            "object_size": 512,
            "n_objects": 24,
            "readers": 8,
            "writers": 6,
            "duration_ns": 100_000.0,
            "warmup_ns": 12_000.0,
        },
        derive=_retry_policy_derive,
        headers=(
            "policy",
            "goodput_gbps",
            "cq_failures",
            "hw_retries",
            "torn_reads",
        ),
        point_fn=_retry_policy_point,
    )
)


# ----------------------------------------------------------------------
# Single-R2P2 pinning cost (built on the fig7a point function)
# ----------------------------------------------------------------------


def _r2p2_distribution_finalize(row: Dict) -> Dict:
    return {
        "object_size": row["object_size"],
        "pinned_sabre_ns": row["sabre_ns"],
        "striped_lower_bound_ns": row["remote_read_ns"],
        "pinning_cost": row["sabre_ns"] / row["remote_read_ns"] - 1.0,
    }


# Reuses fig7a's point function, defaults, derive hook and variants
# on a 3-size grid.
register(
    ExperimentSpec(
        name="ablation_r2p2_distribution",
        description="single-R2P2 pinning cost vs the per-block-striped "
        "remote-read lower bound",
        axes={"object_size": (512, 2048, 8192)},
        # Only the two variants the finalize hook reads — running
        # fig7a's no-speculation variant here would be wasted sims.
        variants=tuple(
            v
            for v in FIG7A_SPEC.variants
            if v.name in ("remote_read_ns", "sabre_ns")
        ),
        defaults=FIG7A_SPEC.defaults,
        derive=FIG7A_SPEC.derive,
        finalize_row=_r2p2_distribution_finalize,
        headers=(
            "object_size",
            "pinned_sabre_ns",
            "striped_lower_bound_ns",
            "pinning_cost",
        ),
        point_fn=FIG7A_SPEC.point_fn,
        base_seed=FIG7A_SPEC.base_seed,
    )
)


# ----------------------------------------------------------------------
# Stream-buffer provisioning (DG1/DG2)
# ----------------------------------------------------------------------


def _stream_buffer_count_derive(params: Dict[str, Any]) -> Dict[str, Any]:
    params["cluster"] = sabre_cluster(
        stream_buffers=params["stream_buffers"]
    )
    return params


def _stream_buffer_count_point(ctx) -> Dict:
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    return {
        "small_sabre_gbps": result.goodput_gbps,
        "att_backpressure_events": result.destination_counters.get(
            "att_backpressure", 0
        ),
    }


register(
    ExperimentSpec(
        name="ablation_stream_buffer_count",
        description="stream-buffer count vs concurrent small-SABRe "
        "throughput (DG2)",
        axes={"stream_buffers": (1, 4, 16)},
        defaults={
            "object_size": 128,
            "n_objects": 256,
            "readers": 16,
            "async_window": 8,
            "duration_ns": 60_000.0,
            "warmup_ns": 8_000.0,
        },
        derive=_stream_buffer_count_derive,
        headers=(
            "stream_buffers",
            "small_sabre_gbps",
            "att_backpressure_events",
        ),
        point_fn=_stream_buffer_count_point,
    )
)


def _stream_buffer_depth_derive(params: Dict[str, Any]) -> Dict[str, Any]:
    params["cluster"] = sabre_cluster(stream_buffer_depth=params["depth"])
    return params


def _stream_buffer_depth_point(ctx) -> Dict:
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    return {"sabre_8kb_latency_ns": result.mean_transfer_latency_ns}


register(
    ExperimentSpec(
        name="ablation_stream_buffer_depth",
        description="stream-buffer depth vs single 8 KB SABRe latency (DG1)",
        axes={"depth": (2, 8, 32, 128)},
        defaults={
            "object_size": 8192,
            "n_objects": 512,
            "duration_ns": 60_000.0,
            "warmup_ns": 5_000.0,
        },
        derive=_stream_buffer_depth_derive,
        headers=("depth", "sabre_8kb_latency_ns"),
        point_fn=_stream_buffer_depth_point,
    )
)
