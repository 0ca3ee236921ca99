"""YCSB-style workloads over the sharded FaRM service.

The Yahoo! Cloud Serving Benchmark (Cooper et al., SoCC'10) is the
standard way to exercise the rack-scale KV services that motivate
SABRes (§1).  This module drives :class:`~repro.objstore.sharded.
ShardedKV` with the three classic core mixes over uniform and Zipfian
key popularity (reusing :mod:`repro.workloads.generators`):

========  ===========  =============================
workload  write share  YCSB description
========  ===========  =============================
A         50 %         update heavy (session store)
B          5 %         read mostly (photo tagging)
C          0 %         read only (user-profile cache)
========  ===========  =============================

Reads are one-sided atomic object reads through whichever
:class:`~repro.objstore.protocols.ReadProtocol` the config names;
writes ship to the primary shard over an RPC and replicate to the
backups.  Every consumed read is audited against ground truth, so
``undetected_violations`` stays the repo-wide safety metric.

Two experiments register with the framework:

* ``ycsb_latency`` — A/B/C x uniform/Zipfian, perCL-versions vs SABRe
  read mechanisms, on a fixed 4-shard deployment.
* ``ycsb_shard_scaling`` — workload A under SABRes while the rack
  grows (1 -> 8 shards, one client node per shard): throughput should
  scale with shard count and the audit must stay clean.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.experiments import ExperimentSpec, QaCheck, Variant, register
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.sim.stats import Samples, meter_window
from repro.workloads.generators import DISTRIBUTIONS
from repro.workloads.mix import (
    READERS_PER_CLIENT,
    DeploymentConfig,
    derive_shard_scaling,
    max_over_mean,
    read_update_proc,
    service_totals,
    spawn_clients,
)

#: Core YCSB mixes: workload letter -> write fraction.
YCSB_MIXES: Dict[str, float] = {"A": 0.5, "B": 0.05, "C": 0.0}


@dataclass
class YcsbConfig(DeploymentConfig):
    """One YCSB run against a sharded deployment."""

    workload: str = "B"
    distribution: str = "zipfian"
    object_size: int = 1024
    n_objects: int = 512
    duration_ns: float = 150_000.0
    warmup_ns: float = 15_000.0
    fallback_after_ns: float = 0.0

    def validate(self) -> None:
        if self.workload not in YCSB_MIXES:
            raise ConfigError(
                f"unknown YCSB workload {self.workload!r}; "
                f"choose from {sorted(YCSB_MIXES)}"
            )
        super().validate()

    @property
    def write_fraction(self) -> float:
        return YCSB_MIXES[self.workload]


@dataclass
class YcsbResult:
    config: YcsbConfig
    read_latency: Samples
    write_latency: Samples
    reads_completed: int
    writes_completed: int
    read_goodput_gbps: float
    ops_per_us: float
    retries: int
    sabre_aborts: int
    software_conflicts: int
    undetected_violations: int
    fallback_reads: int
    shard_rows: List[Dict[str, float]]

    @property
    def mean_read_ns(self) -> float:
        return self.read_latency.mean

    @property
    def mean_write_ns(self) -> float:
        return self.write_latency.mean

    @property
    def shard_imbalance(self) -> float:
        """Max-over-mean routed reads across shards (1.0 = perfectly
        balanced; grows with Zipfian skew and shard count)."""
        return max_over_mean([row["reads_routed"] for row in self.shard_rows])


def run_ycsb(cfg: YcsbConfig) -> YcsbResult:
    """Build the sharded service and run the closed-loop YCSB mix."""
    cfg.validate()
    with closing(ShardedKV(ShardedConfig.of(cfg))) as kv:
        sim = kv.cluster.sim
        t_end = cfg.duration_ns
        write_frac = cfg.write_fraction

        read_latency = Samples("ycsb_read_ns")
        window = {"writes": 0}

        def on_read(ok, t0: float) -> None:
            if ok:
                read_latency.add(sim.now - t0)

        def on_update(t0: float) -> None:
            kv.write_latency.add(sim.now - t0)
            if cfg.warmup_ns <= sim.now <= t_end:
                window["writes"] += 1

        def client(client: int, thread: int):
            rng = make_rng(cfg.seed, "ycsb-mix", client, thread)
            pick = cfg.picker((client, thread)).pick
            return read_update_proc(
                sim,
                kv,
                kv.reader_session(client),
                lambda: kv.key_name(pick()),
                lambda: write_frac > 0.0 and rng.random() < write_frac,
                t_end,
                on_read,
                on_update,
            )

        spawn_clients(sim, kv.cfg.clients, [(READERS_PER_CLIENT, client)])
        meters = [stats.meter for stats in kv.all_reader_stats()]
        sim.process(meter_window(sim, meters, cfg.warmup_ns, t_end))
        sim.run()

        reader_stats = kv.all_reader_stats()
        totals = service_totals(kv)
        window_ns = t_end - cfg.warmup_ns
        bytes_measured = sum(s.meter.bytes_total for s in reader_stats)
        reads_measured = sum(s.meter.ops_total for s in reader_stats)
        return YcsbResult(
            config=cfg,
            read_latency=read_latency,
            write_latency=kv.write_latency,
            reads_completed=reads_measured,
            writes_completed=window["writes"],
            read_goodput_gbps=bytes_measured / window_ns,
            ops_per_us=(reads_measured + window["writes"]) / window_ns * 1e3,
            retries=totals["retries"],
            sabre_aborts=totals["sabre_aborts"],
            software_conflicts=totals["software_conflicts"],
            undetected_violations=totals["undetected_violations"],
            fallback_reads=totals["fallback_reads"],
            shard_rows=kv.shard_load(),
        )


# ----------------------------------------------------------------------
# registered experiments
# ----------------------------------------------------------------------

LATENCY_HEADERS = (
    "workload",
    "distribution",
    "percl_read_ns",
    "sabre_read_ns",
    "percl_write_ns",
    "sabre_write_ns",
    "read_speedup",
)

SCALING_HEADERS = (
    "shards",
    "read_gbps",
    "ops_per_us",
    "read_ns",
    "write_ns",
    "retries",
    "fallback_reads",
    "undetected_violations",
    "shard_imbalance",
)


def _ycsb_latency_point(ctx) -> Dict[str, float]:
    result = run_ycsb(YcsbConfig.from_params(ctx.params, ctx.scale))
    v = ctx.variant
    return {
        f"{v}_read_ns": result.mean_read_ns,
        f"{v}_write_ns": result.mean_write_ns,
        f"{v}_violations": result.undetected_violations,
    }


def _latency_finalize(row: Dict) -> Dict:
    sabre = row.get("sabre_read_ns", math.nan)
    percl = row.get("percl_read_ns", math.nan)
    row["read_speedup"] = percl / sabre if sabre and sabre > 0 else math.nan
    return row


YCSB_LATENCY_SPEC = register(
    ExperimentSpec(
        name="ycsb_latency",
        description="YCSB A/B/C on a 4-shard service: perCL vs SABRe reads",
        axes={
            "workload": tuple(sorted(YCSB_MIXES)),
            "distribution": DISTRIBUTIONS,
        },
        variants=(
            Variant("percl", {"mechanism": "percl_versions"}),
            Variant("sabre", {"mechanism": "sabre"}),
        ),
        defaults={"seed": 11},
        finalize_row=_latency_finalize,
        headers=LATENCY_HEADERS,
        point_fn=_ycsb_latency_point,
        qa_checks=(
            QaCheck("sabre_read_ns", agg="min", lo=0.0),
            QaCheck("percl_read_ns", agg="min", lo=0.0),
        ),
    )
)


def _ycsb_scaling_point(ctx) -> Dict[str, float]:
    result = run_ycsb(YcsbConfig.from_params(ctx.params, ctx.scale))
    return {
        "read_gbps": result.read_goodput_gbps,
        "ops_per_us": result.ops_per_us,
        "read_ns": result.mean_read_ns,
        "write_ns": result.mean_write_ns,
        "retries": result.retries,
        "fallback_reads": result.fallback_reads,
        "undetected_violations": result.undetected_violations,
        "shard_imbalance": result.shard_imbalance,
    }


YCSB_SHARD_SCALING_SPEC = register(
    ExperimentSpec(
        name="ycsb_shard_scaling",
        description="YCSB-A throughput under SABRes as shards grow 1->8",
        axes={"shards": (1, 2, 4, 8)},
        defaults={
            "workload": "A",
            "distribution": "uniform",
            "replication": 2,  # capped at the shard count by derive
            "seed": 13,
        },
        derive=derive_shard_scaling,
        headers=SCALING_HEADERS,
        point_fn=_ycsb_scaling_point,
        qa_checks=(QaCheck("undetected_violations", agg="max", hi=0.0),),
    )
)
