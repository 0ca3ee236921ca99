"""Availability workloads: the sharded service under shard crashes.

Closed-loop readers, writers, and small read-modify-write transactions
drive :class:`~repro.objstore.sharded.ShardedKV` while a
:class:`~repro.faults.failover.FailoverManager` executes a lane of
crash windows (one shard down at a time, round-robin).  The
workload meters two things the contention-only suites cannot:

* **availability** — reads and writes keep completing *while a primary
  is down*, served by the promoted backups (``reads_during_outage`` /
  ``writes_during_outage``), and transactions keep committing around
  forced ``abort_crash`` aborts;
* **atomicity across promotions** — every consumed read still passes
  the ground-truth torn-read audit, so ``undetected_violations`` and
  ``torn_reads_observed`` must stay zero for every detecting protocol
  even when reads cross a crash boundary onto a backup replica or a
  freshly re-synced shard.

Two experiments register with the framework:

* ``failover_availability`` — reads/writes under SABRes across a
  growing number of crash/recovery cycles on a 4-shard deployment;
  shows reads continuing (via promoted backups) while a primary is
  down.
* ``failover_atomicity`` — every detecting mechanism through >= 3
  crash/recovery cycles at 4 shards: zero undetected violations, zero
  transaction-side torn reads, byte-identical under parallel sweeps.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigError
from repro.experiments import ExperimentSpec, Variant, register
from repro.faults import (
    FailoverManager,
    FaultInjector,
    FaultSchedule,
    cycle_fault_schedule,
)
from repro.objstore.protocols import DETECTING_VARIANTS
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.sim.stats import Samples
from repro.workloads.mix import (
    ServiceMixConfig,
    service_roles,
    service_totals,
    spawn_clients,
)


#: The crash lane as fractions of ``duration_ns``: when the first shard
#: crashes, how long each stays down, and the healthy time between one
#: shard's recovery and the next crash.
FIRST_CRASH_FRAC = 0.15
DOWNTIME_FRAC = 0.12
UPTIME_FRAC = 0.10


@dataclass
class FailoverMixConfig(ServiceMixConfig):
    """One failover run: a mixed read/write/txn load plus ``cycles``
    crash windows.

    The crash windows are placed as *fractions* of ``duration_ns``
    (:data:`FIRST_CRASH_FRAC`, :data:`DOWNTIME_FRAC`,
    :data:`UPTIME_FRAC`) so the same config scales with ``--scale``
    sweeps without a crash falling off the end of the run; the fault
    lane beyond crash cycles (``fault_kind`` and friends) is placed the
    same way, and one schedule holds both."""

    cycles: int = 3

    def validate(self) -> None:
        super().validate()
        if self.cycles < 0:
            raise ConfigError(f"cycles cannot be negative: {self.cycles}")
        if self.replication < 2 and self.cycles > 0:
            raise ConfigError(
                "failover runs need replication >= 2 (a crashed singleton "
                "has nothing to promote)"
            )

    def fault_schedule(self) -> FaultSchedule:
        """The fault lane's windows plus ``cycles`` crash windows."""
        crashes = cycle_fault_schedule(
            "crash",
            range(self.n_shards),
            self.cycles,
            FIRST_CRASH_FRAC * self.duration_ns,
            DOWNTIME_FRAC * self.duration_ns,
            UPTIME_FRAC * self.duration_ns,
        )
        lane = super().fault_schedule()
        return FaultSchedule(lane.windows + crashes.windows)


@dataclass
class FailoverResult:
    config: FailoverMixConfig
    read_latency: Samples
    reads_completed: int
    reads_during_outage: int
    writes_completed: int
    writes_during_outage: int
    commits: int
    crash_aborts: int
    lock_aborts: int
    validation_aborts: int
    retries: int
    fenced_rejects: int
    crash_redirects: int
    undetected_violations: int
    torn_reads_observed: int
    crashes: int
    recoveries: int
    promotions: int
    failed_rpcs: int
    failed_transfers: int
    resynced_objects: int
    shard_rows: List[Dict[str, float]]
    txn_rows: List[Dict[str, int]]
    #: Gray/straggler/partition lane counters (all zero when the
    #: config schedules no fault windows).
    fault_windows: int
    reads_during_fault: int
    writes_during_fault: int
    watchdog_rearms: int
    partition_refusals: int

    @property
    def outage_read_share(self) -> float:
        """Share of completed reads served while a shard was down —
        the availability headline (0 when the run has no cycles)."""
        if self.reads_completed <= 0:
            return math.nan
        return self.reads_during_outage / self.reads_completed

    @property
    def fault_read_share(self) -> float:
        """Share of completed reads served while a gray/straggler/
        partition window was open — the degraded-mode availability
        headline."""
        if self.reads_completed <= 0:
            return math.nan
        return self.reads_during_fault / self.reads_completed


def run_failover_mix(cfg: FailoverMixConfig) -> FailoverResult:
    """Build the service + txn layer + fault injector and run the
    closed-loop mix to ``duration_ns``."""
    cfg.validate()
    with closing(ShardedKV(ShardedConfig.of(cfg))) as kv:
        manager = TxnManager(kv)
        schedule = cfg.fault_schedule()
        injector = FailoverManager(kv, schedule)
        faults = FaultInjector(kv.cluster, schedule)
        sim = kv.cluster.sim
        t_end = cfg.duration_ns

        read_latency = Samples("failover_read_ns")
        # In-window counters, keyed by the FailoverResult field they fill.
        window = {
            "reads_completed": 0,
            "reads_during_outage": 0,
            "reads_during_fault": 0,
            "writes_completed": 0,
            "writes_during_outage": 0,
            "writes_during_fault": 0,
            "commits": 0,
            "crash_aborts": 0,
            "lock_aborts": 0,
            "validation_aborts": 0,
        }

        def in_window() -> bool:
            return cfg.warmup_ns <= sim.now <= t_end

        def on_read(ok, t0: float) -> None:
            if ok and in_window():
                read_latency.add(sim.now - t0)
                window["reads_completed"] += 1
                if injector.any_down():
                    window["reads_during_outage"] += 1
                if faults.any_active():
                    window["reads_during_fault"] += 1

        def on_write(ack) -> None:
            if ack is not None and in_window():
                window["writes_completed"] += 1
                if injector.any_down():
                    window["writes_during_outage"] += 1
                if faults.any_active():
                    window["writes_during_fault"] += 1

        def on_txn(outcome, _t0) -> None:
            if in_window():
                window["commits"] += int(outcome.committed)
                window["crash_aborts"] += outcome.crash_aborts
                window["lock_aborts"] += outcome.lock_aborts
                window["validation_aborts"] += outcome.validation_aborts

        spawn_clients(
            sim,
            kv.cfg.clients,
            service_roles(kv, manager, cfg, on_read, on_write, on_txn),
        )
        sim.run()

        totals = service_totals(kv)
        fo = injector.stats
        return FailoverResult(
            config=cfg,
            read_latency=read_latency,
            **window,
            retries=totals["retries"],
            fenced_rejects=totals["fenced_rejects"],
            crash_redirects=totals["crash_redirects"],
            undetected_violations=totals["undetected_violations"],
            torn_reads_observed=manager.merged_stats().torn_reads_observed,
            crashes=fo.crashes,
            recoveries=fo.recoveries,
            promotions=fo.promotions,
            failed_rpcs=fo.failed_rpcs,
            failed_transfers=fo.failed_transfers,
            resynced_objects=fo.resynced_objects,
            shard_rows=kv.shard_load(),
            txn_rows=manager.txn_rows(),
            fault_windows=(
                faults.stats.gray_windows
                + faults.stats.straggler_windows
                + faults.stats.partition_windows
            ),
            watchdog_rearms=totals["watchdog_rearms"],
            partition_refusals=totals["partition_refusals"],
        )


# ----------------------------------------------------------------------
# registered experiments
# ----------------------------------------------------------------------

AVAILABILITY_HEADERS = (
    "cycles",
    "reads",
    "reads_during_outage",
    "outage_read_share",
    "writes",
    "writes_during_outage",
    "commits",
    "crash_aborts",
    "crash_redirects",
    "promotions",
    "recoveries",
    "undetected_violations",
)

ATOMICITY_HEADERS = (
    "cycles",
    *(f"{label}_violations" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_torn_reads" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_reads" for label, _ in DETECTING_VARIANTS),
)


def _availability_point(ctx) -> Dict[str, float]:
    result = run_failover_mix(FailoverMixConfig.from_params(ctx.params, ctx.scale))
    return {
        "reads": result.reads_completed,
        "reads_during_outage": result.reads_during_outage,
        "outage_read_share": result.outage_read_share,
        "writes": result.writes_completed,
        "writes_during_outage": result.writes_during_outage,
        "commits": result.commits,
        "crash_aborts": result.crash_aborts,
        "crash_redirects": result.crash_redirects,
        "promotions": result.promotions,
        "recoveries": result.recoveries,
        "undetected_violations": result.undetected_violations,
    }


FAILOVER_AVAILABILITY_SPEC = register(
    ExperimentSpec(
        name="failover_availability",
        description=(
            "Reads keep flowing through promoted backups while primaries "
            "crash and recover"
        ),
        axes={"cycles": (0, 1, 3)},
        defaults={"seed": 29},
        headers=AVAILABILITY_HEADERS,
        point_fn=_availability_point,
    )
)


def _atomicity_point(ctx) -> Dict[str, float]:
    result = run_failover_mix(FailoverMixConfig.from_params(ctx.params, ctx.scale))
    v = ctx.variant
    return {
        f"{v}_violations": result.undetected_violations,
        f"{v}_torn_reads": result.torn_reads_observed,
        f"{v}_reads": result.reads_completed,
        f"{v}_crash_aborts": result.crash_aborts,
        f"{v}_promotions": result.promotions,
    }


FAULT_HEADERS = (
    "fault_windows",
    "reads",
    "reads_during_fault",
    "fault_read_share",
    "writes",
    "writes_during_fault",
    "commits",
    "watchdog_rearms",
    "partition_refusals",
    "crash_redirects",
    "undetected_violations",
)

#: What the fault-injection specs change in the flagship failover
#: mix: zipfian keys and no crash cycles — the faults are the event
#: under study.
_FAULT_SPEC_DEFAULTS = {"cycles": 0, "distribution": "zipfian"}


def _fault_point(ctx, fault_kind: str) -> Dict[str, float]:
    if not ctx.params["fault_windows"]:
        fault_kind = "none"
    result = run_failover_mix(
        FailoverMixConfig.from_params(
            ctx.params, ctx.scale, fault_kind=fault_kind
        )
    )
    return {
        "fault_windows": result.fault_windows,
        "reads": result.reads_completed,
        "reads_during_fault": result.reads_during_fault,
        "fault_read_share": result.fault_read_share,
        "writes": result.writes_completed,
        "writes_during_fault": result.writes_during_fault,
        "commits": result.commits,
        "watchdog_rearms": result.watchdog_rearms,
        "partition_refusals": result.partition_refusals,
        "crash_redirects": result.crash_redirects,
        "undetected_violations": result.undetected_violations,
    }


GRAY_AVAILABILITY_SPEC = register(
    ExperimentSpec(
        name="gray_availability",
        description=(
            "Reads, writes, and commits keep flowing while shards turn "
            "gray (slow-but-alive service-time multipliers)"
        ),
        axes={"fault_windows": (0, 2, 4)},
        defaults={**_FAULT_SPEC_DEFAULTS, "seed": 37},
        headers=FAULT_HEADERS,
        point_fn=lambda ctx: _fault_point(ctx, "gray"),
    )
)


PARTITION_AVAILABILITY_SPEC = register(
    ExperimentSpec(
        name="partition_availability",
        description=(
            "Shards are isolated by drop windows one at a time; new "
            "conversations are refused, in-flight ones drain, and no "
            "consumed read is ever torn"
        ),
        axes={"fault_windows": (0, 2, 4)},
        defaults={
            **_FAULT_SPEC_DEFAULTS,
            "seed": 41,
            # Readers walk to a serving backup when the primary's
            # window refuses them.
            "fallback_after_ns": 1_500.0,
        },
        headers=FAULT_HEADERS,
        point_fn=lambda ctx: _fault_point(ctx, "partition"),
    )
)


FAILOVER_ATOMICITY_SPEC = register(
    ExperimentSpec(
        name="failover_atomicity",
        description=(
            "Detecting mechanisms consume zero torn reads across "
            "crash/promotion/re-sync boundaries"
        ),
        axes={"cycles": (3,)},
        variants=tuple(
            Variant(label, {"mechanism": name})
            for label, name in DETECTING_VARIANTS
        ),
        defaults={"n_objects": 32, "seed": 31},
        headers=ATOMICITY_HEADERS,
        point_fn=_atomicity_point,
    )
)
