"""Randomized atomicity-fuzz driver over the sharded store.

One :func:`fuzz_round` builds a small, hot sharded deployment and lets
randomized reader, writer, and multi-object-transaction processes
interleave for a while; with ``crash_cycles > 0`` a failover lane rides
along, crashing and recovering shards mid-flight.  The whole schedule
(process counts, key choices, pacing, transaction shapes, crash times)
derives from ``seed``, so rounds are reproducible interleavings.

The correctness assertions over the outcome live in
``tests/test_atomicity_fuzz.py``; the repo benchmark's
``chaos_elastic`` workload (``bench/workloads.py``) times rounds of the
crash lane.
"""

from __future__ import annotations

from contextlib import closing

from repro.common.rng import derive_seed, make_rng
from repro.faults import (
    FailoverManager,
    FaultInjector,
    FaultSchedule,
    FaultWindow,
    cycle_fault_schedule,
)
from repro.objstore.protocols import DETECTING_VARIANTS
from repro.objstore.reshard import ReshardManager
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.workloads.mix import (
    reader_proc,
    service_totals,
    txn_proc,
    unmetered,
    writer_proc,
)

#: RPC watchdog armed for fault-lane rounds (when no failover or
#: reshard manager armed one first): short enough that gray windows make
#: watchdogs fire against slow-but-alive shards, exercising the re-arm
#: path.
FAULT_LANE_RPC_TIMEOUT_NS = 8_000.0

#: Mechanisms whose consumed reads must never be torn.
DETECTING = tuple(name for _label, name in DETECTING_VARIANTS)


class FuzzOutcome:
    """Aggregated counters of one fuzz round."""

    def __init__(self, kv, manager, injector=None, faults=None, reshard=None):
        totals = service_totals(kv)
        txn = manager.merged_stats()
        self.undetected_violations = totals["undetected_violations"]
        self.torn_reads_observed = txn.torn_reads_observed
        self.reads_consumed = totals["reads_consumed"]
        self.commits = txn.commits
        self.detected_conflicts = (
            totals["sabre_aborts"]
            + totals["software_conflicts"]
            + totals["retries"]
            + txn.lock_conflicts
            + txn.validation_aborts
        )
        self.writes = totals["primary_updates"]
        self.crashes = injector.stats.crashes if injector else 0
        self.recoveries = injector.stats.recoveries if injector else 0
        self.promotions = injector.stats.promotions if injector else 0
        self.crash_aborts = txn.crash_aborts
        #: Work the crashes demonstrably interrupted: forced txn
        #: aborts, fenced try-locks, failed in-flight RPCs/transfers.
        self.crash_disruptions = self.crash_aborts + txn.fenced_locks
        if injector:
            self.crash_disruptions += (
                injector.stats.failed_rpcs + injector.stats.failed_transfers
            )
        self.gray_windows = faults.stats.gray_windows if faults else 0
        self.straggler_windows = (
            faults.stats.straggler_windows if faults else 0
        )
        self.partition_windows = (
            faults.stats.partition_windows if faults else 0
        )
        self.partition_refusals = totals["partition_refusals"]
        self.watchdog_rearms = totals["watchdog_rearms"]
        self.shards_added = reshard.stats.shards_added if reshard else 0
        self.keys_migrated = reshard.stats.keys_migrated if reshard else 0
        self.vnode_handoffs = reshard.stats.vnode_handoffs if reshard else 0
        self.migration_retries = (
            reshard.stats.migration_retries if reshard else 0
        )
        self.reshard_redirects = totals["reshard_redirects"]
        self.fingerprint = (
            self.undetected_violations,
            self.torn_reads_observed,
            self.reads_consumed,
            self.commits,
            self.detected_conflicts,
            self.writes,
            self.crashes,
            self.promotions,
            self.crash_aborts,
            self.gray_windows,
            self.straggler_windows,
            self.partition_windows,
            self.partition_refusals,
            self.watchdog_rearms,
            self.shards_added,
            self.keys_migrated,
            self.vnode_handoffs,
            self.migration_retries,
            self.reshard_redirects,
            [s.retries for s in kv.all_reader_stats()],
            manager.txn_rows(),
            kv.shard_load(),
        )


def fuzz_round(
    mechanism: str,
    n_shards: int,
    seed: int,
    duration_ns: float = 30_000.0,
    object_size: int = 512,
    crash_cycles: int = 0,
    gray_windows: int = 0,
    partition_windows: int = 0,
    skew_max_ns: float = 0.0,
    reshard_adds: int = 0,
) -> FuzzOutcome:
    """One randomized interleaving: the schedule (process counts, key
    choices, pacing, transaction shapes) all derive from ``seed``.

    With ``crash_cycles > 0`` a failover lane rides along: that many
    crash/recover cycles round-robin over the shards at seed-derived
    times, so readers, writers, and mid-flight transaction commits get
    interleaved with promotions and re-syncs.

    ``gray_windows`` adds slow-but-alive windows (a seed-derived mix of
    full gray failures and RPC-plane-only stragglers) on random shards;
    ``partition_windows`` adds drop windows that either fully isolate a
    shard or sever a single client->shard link (the asymmetric case);
    ``skew_max_ns`` gives every node a seed-derived clock skew in
    ``[0, skew_max_ns]``, so lease views go stale and watchdog
    deadlines stretch.  All three compose with each other and with the
    crash lane.

    ``reshard_adds > 0`` schedules a live scale-out of that many spare
    shards at a seed-derived mid-run time — the elastic lane.  It
    composes with everything above: a migration overlapping a gray
    window, a partition, or a crash of the very shard a key is
    migrating from is exactly the interleaving this lane exists to
    buy."""
    rng = make_rng(seed, "fuzz-schedule", mechanism, n_shards)
    cfg = ShardedConfig(
        n_shards=n_shards,
        max_shards=n_shards + reshard_adds,
        n_clients=2,
        replication=min(2, n_shards),
        mechanism=mechanism,
        object_size=object_size,
        n_objects=rng.randint(4, 8),  # hot: conflicts are the point
        seed=derive_seed(seed, "fuzz-deploy", mechanism, n_shards),
    )
    with closing(ShardedKV(cfg)) as kv:
        manager = TxnManager(kv)
        reshard = None
        if reshard_adds:
            reshard = ReshardManager(kv)
            reshard.scale_out(
                reshard_adds, at_ns=duration_ns * rng.uniform(0.2, 0.5)
            )
        injector = None
        if crash_cycles:
            assert n_shards >= 2, "crash fuzzing needs a backup to promote"
            period = duration_ns / (crash_cycles + 1)
            downtime = period * rng.uniform(0.25, 0.5)
            injector = FailoverManager(
                kv,
                cycle_fault_schedule(
                    "crash",
                    range(n_shards),
                    crash_cycles,
                    period * rng.uniform(0.3, 0.7),
                    downtime,
                    period - downtime,
                ),
            )
        fault_windows = []
        if gray_windows:
            period = duration_ns / (gray_windows + 1)
            for i in range(gray_windows):
                width = period * rng.uniform(0.3, 0.6)
                start = period * (i + rng.uniform(0.3, 0.7))
                fault_windows.append(
                    FaultWindow(
                        "gray" if rng.random() < 0.7 else "straggler",
                        start_ns=start,
                        end_ns=start + width,
                        node=rng.randrange(n_shards),
                        multiplier=rng.uniform(3.0, 12.0),
                    )
                )
        if partition_windows:
            period = duration_ns / (partition_windows + 1)
            for i in range(partition_windows):
                width = period * rng.uniform(0.25, 0.5)
                start = period * (i + rng.uniform(0.3, 0.7))
                shard_node = rng.randrange(n_shards)
                # Half the windows fully isolate the shard; half sever a
                # single client->shard link (the asymmetric case, where
                # everyone else still reaches it).
                src = (
                    None
                    if rng.random() < 0.5
                    else n_shards + rng.randrange(cfg.n_clients)
                )
                fault_windows.append(
                    FaultWindow(
                        "partition",
                        start_ns=start,
                        end_ns=start + width,
                        src=src,
                        dst=shard_node,
                    )
                )
        skews = {}
        if skew_max_ns > 0:
            for node_id in range(n_shards + cfg.n_clients):
                skews[node_id] = rng.uniform(0.0, skew_max_ns)
        faults = None
        if fault_windows or skews:
            faults = FaultInjector(
                kv.cluster, FaultSchedule(fault_windows, skews)
            )
            kv.arm_watchdogs(FAULT_LANE_RPC_TIMEOUT_NS)
        sim = kv.cluster.sim
        keys = kv.keys()
        t_end = duration_ns

        def random_key(pick):
            return lambda: keys[pick.randrange(len(keys))]

        def reader(i: int):
            pick = make_rng(seed, "fuzz-reader", i)
            session = kv.reader_session(i % cfg.clients)
            return reader_proc(sim, session, random_key(pick), t_end, unmetered)

        def writer(i: int):
            pick = make_rng(seed, "fuzz-writer", i)
            return writer_proc(
                sim,
                kv,
                i % cfg.clients,
                random_key(pick),
                lambda: pick.uniform(10.0, 200.0),
                t_end,
                unmetered,
            )

        def txn(i: int):
            pick = make_rng(seed, "fuzz-txn", i)

            def next_txn():
                size = pick.randint(2, min(4, len(keys)))
                chosen = pick.sample(keys, size)
                return chosen, chosen[: pick.randint(0, size)]

            session = manager.session(i % cfg.clients)
            return txn_proc(sim, session, next_txn, t_end, unmetered)

        # Role-major, not client-major like ``spawn_clients``: the process
        # *counts* are part of the seed-derived schedule.
        for role in (reader, writer, txn):
            for i in range(rng.randint(1, 2)):
                sim.process(role(i))

        sim.run()
        return FuzzOutcome(kv, manager, injector, faults, reshard)
