"""Tests for the shard crash/failover subsystem: crash-window validation,
typed in-flight failures, backup promotion and permanent re-routing,
epoch fencing, timed re-sync, transaction forced aborts, determinism,
and the registered failover experiments."""

import pytest

from repro.atomicity.locks import is_locked
from repro.common.errors import ConfigError, ShardCrashedError
from repro.experiments import registry, run_sweep
from repro.faults import (
    FailoverManager,
    FaultSchedule,
    FaultWindow,
    cycle_fault_schedule,
    failover,
)
from repro.objstore.sharded import REPLY_FENCED, ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.workloads.availability import (
    FAILOVER_ATOMICITY_SPEC,
    FAILOVER_AVAILABILITY_SPEC,
    FailoverMixConfig,
    run_failover_mix,
)


def small_kv(**kw):
    defaults = dict(
        n_shards=4,
        replication=2,
        mechanism="sabre",
        object_size=256,
        n_objects=32,
        seed=7,
    )
    defaults.update(kw)
    return ShardedKV(ShardedConfig(**defaults))


def run_gen(kv, gen):
    """Drive one generator to completion; return its value."""
    out = []

    def proc():
        value = yield from gen
        out.append(value)

    kv.cluster.sim.process(proc())
    kv.cluster.sim.run()
    return out[0]


def crashes(*windows):
    """A schedule of ``(shard, crash_ns, recover_ns)`` crash windows."""
    return FaultSchedule(
        [FaultWindow("crash", start, end, node=shard)
         for shard, start, end in windows]
    )


class TestFailurePlan:
    def test_cycles_builder_round_robins(self):
        sched = cycle_fault_schedule(
            "crash", [0, 1], 3, first_ns=100.0, width_ns=50.0, gap_ns=25.0
        )
        assert [w.kind for w in sched.windows] == ["crash"] * 3
        assert [w.node for w in sched.windows] == [0, 1, 0]
        assert [w.start_ns for w in sched.windows] == [100.0, 175.0, 250.0]
        assert sched.windows[0].end_ns == 150.0
        assert sched.end_ns() == 300.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            crashes((0, -1.0, 10.0))
        with pytest.raises(ConfigError):
            crashes((0, 100.0, 50.0))  # recover < crash
        with pytest.raises(ConfigError):  # a crash names its shard
            FaultSchedule([FaultWindow("crash", 0.0, 100.0)])
        with pytest.raises(ConfigError):  # overlapping crashes, one shard
            FailoverManager(
                small_kv(), crashes((0, 0.0, 100.0), (0, 50.0, 200.0))
            )
        with pytest.raises(ConfigError):
            cycle_fault_schedule("crash", [], 1, 0.0, 10.0, 10.0)

    def test_plan_must_name_real_shards(self):
        kv = small_kv(n_shards=2)
        with pytest.raises(ConfigError):
            FailoverManager(kv, crashes((7, 100.0, 200.0)))
        with pytest.raises(ConfigError):
            FailoverManager(kv, crashes((-1, 100.0, 200.0)))


class TestCrash:
    def test_in_flight_rpc_fails_with_typed_error(self):
        """A put in flight to the crashing primary fails with
        ShardCrashedError, redirects to the promotee, and still lands
        exactly once."""
        kv = small_kv()
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)

        sim.call_at(100.0, lambda: fm.crash(primary))
        ack = run_gen(kv, iter_put(kv, 0, key))
        assert ack == b"\x01"
        # The redirect was observed as a typed failure on the old
        # primary, and the update landed on the promoted backup.
        assert kv.write_stats[primary].crash_redirects == 1
        assert kv.write_stats[primary].primary_updates == 0
        assert kv.write_stats[backup].primary_updates == 1
        assert kv.stores[backup].current_version(idx) == 2
        assert fm.stats.failed_rpcs >= 1

    def test_reads_served_by_promoted_backup_while_primary_down(self):
        kv = small_kv()
        fm = FailoverManager(kv)
        key = kv.keys()[0]
        primary, backup = kv.replicas_of(key)
        fm.crash(primary)
        session = kv.reader_session(0)
        ok = run_gen(kv, session.lookup(key, t_end=50_000.0))
        assert ok is True
        assert len(session.stats[backup].op_latency) == 1
        assert len(session.stats[primary].op_latency) == 0
        # The promotee serves as *primary* of the new view, not as a
        # fallback read.
        assert session.stats[backup].fallback_reads == 0
        assert kv.current_primary(kv.key_index(key)) == backup

    def test_promotion_is_permanent_after_recovery(self):
        kv = small_kv()
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        primary, backup = kv.replicas_of(key)
        fm.crash(primary)
        sim.call_at(1_000.0, lambda: fm.recover(primary))
        sim.run()
        assert kv.serving[primary]
        # Recovered shard rejoined as a backup; the promotee keeps the
        # keys it took over.
        assert kv.current_primary(kv.key_index(key)) == backup
        assert kv.replicas_of(key)[0] == backup
        assert fm.stats.recoveries == 1

    def test_double_crash_rejected(self):
        kv = small_kv()
        fm = FailoverManager(kv)
        fm.crash(1)
        with pytest.raises(ConfigError):
            fm.crash(1)
        with pytest.raises(ConfigError):
            fm.recover(0)  # not down


def iter_put(kv, client, key):
    """A put as a plain generator (instead of a spawned process)."""
    ack = yield kv.put(client, key)
    return ack


class TestFencing:
    def test_stale_epoch_put_is_fenced(self):
        """A forged put stamped with a superseded epoch is refused by
        the handler — the check every real request passes through."""
        kv = small_kv()
        FailoverManager(kv)
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        kv.advance_epoch()  # view moved on; the forged request did not
        stale = (0).to_bytes(8, "little") + idx.to_bytes(8, "little") + bytes(
            kv.cfg.payload_len
        )

        def forged():
            reply = yield kv.client_rpc(0).call(
                kv.shards[primary].node_id, "shard_put", stale
            )
            return reply

        assert run_gen(kv, forged()) == REPLY_FENCED
        assert kv.write_stats[primary].fenced_rejects == 1
        assert kv.stores[primary].current_version(idx) == 0  # nothing landed

    def test_demoted_primary_fences_puts_for_moved_keys(self):
        """After a crash+recovery the old primary no longer owns its
        keys; a put addressed to it (stale view) is fenced even with a
        current epoch."""
        kv = small_kv()
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        fm.crash(primary)
        sim.call_at(500.0, lambda: fm.recover(primary))
        sim.run()
        assert kv.serving[primary]
        forged = kv.epoch.to_bytes(8, "little") + idx.to_bytes(
            8, "little"
        ) + bytes(kv.cfg.payload_len)

        def send():
            reply = yield kv.client_rpc(0).call(
                kv.shards[primary].node_id, "shard_put", forged
            )
            return reply

        assert run_gen(kv, send()) == REPLY_FENCED

    def test_stale_epoch_try_lock_is_fenced(self):
        kv = small_kv()
        FailoverManager(kv)
        manager = TxnManager(kv)
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        for _ in range(3):
            kv.advance_epoch()
        payload = (0).to_bytes(8, "little") + idx.to_bytes(8, "little")

        def forged():
            reply = yield kv.client_rpc(0).call(
                kv.shards[primary].node_id, "txn_lock", payload
            )
            return reply

        assert run_gen(kv, forged()) == REPLY_FENCED
        assert manager.stats[primary].fenced_locks == 1
        assert not is_locked(kv.stores[primary].current_version(idx))

    def test_rejoining_shard_fences_until_resync_completes(self, monkeypatch):
        """Between NI-up and re-sync-end the shard is alive but not
        serving: requests reaching it are fenced."""
        monkeypatch.setattr(failover, "RESYNC_FIXED_NS", 10_000.0)
        kv = small_kv()
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        fm.crash(primary)
        fm.recover(primary)  # NI back up; re-sync runs for >= 10 us
        payload = kv.epoch.to_bytes(8, "little") + idx.to_bytes(
            8, "little"
        ) + bytes(kv.cfg.payload_len)
        replies = []

        def probe():
            reply = yield kv.client_rpc(0).call(
                kv.shards[primary].node_id, "shard_put", payload
            )
            replies.append(reply)

        sim.process(probe())
        sim.run(until=5_000.0)  # inside the re-sync window
        assert replies == [REPLY_FENCED]
        assert not kv.serving[primary]
        sim.run()
        assert kv.serving[primary]


class TestResync:
    def test_recovered_shard_resyncs_missed_writes(self):
        """Writes accepted by the promotee during the outage reach the
        rejoining shard before it serves again."""
        kv = small_kv()
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)
        fm.crash(primary)

        def write_then_recover():
            for _ in range(3):
                yield kv.put(0, key)
            fm.recover(primary)

        sim.process(write_then_recover())
        sim.run()
        assert kv.stores[backup].current_version(idx) == 6
        assert kv.stores[primary].current_version(idx) == 6
        assert fm.stats.resynced_objects > 0

    def test_resync_clears_stranded_locks(self):
        """An odd (locked) version stranded by a crash mid-update is
        rounded down to the last committed image on rejoin."""
        kv = small_kv()
        fm = FailoverManager(kv)
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        store = kv.stores[primary]
        store.phys.write(store.version_addr(idx), (3).to_bytes(8, "little"))
        fm.crash(primary)
        fm.recover(primary)
        kv.cluster.sim.run()
        assert not is_locked(store.current_version(idx))

    def test_resync_charges_simulated_time(self, monkeypatch):
        monkeypatch.setattr(failover, "RESYNC_FIXED_NS", 1_000.0)
        monkeypatch.setattr(failover, "RESYNC_NS_PER_OBJECT", 10.0)
        kv = small_kv()
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        fm.crash(2)
        fm.recover(2)
        # The shard serves again exactly when its re-sync charge ends.
        cost = 1_000.0 + 10.0 * len(kv.hosted_on(2))
        serving = {}
        sim.call_at(cost - 1.0, lambda: serving.update(before=kv.serving[2]))
        sim.call_at(cost + 1.0, lambda: serving.update(after=kv.serving[2]))
        sim.run()
        assert sim.now >= cost
        assert serving == {"before": False, "after": True}


class TestTxnForcedAborts:
    def test_crash_under_lock_rpc_forces_abort_crash(self):
        """Crashing the locked shard while the lock RPC is in flight
        yields the distinct abort_crash reason — and the retry commits
        against the promoted view."""
        kv = small_kv()
        fm = FailoverManager(kv)
        manager = TxnManager(kv)
        session = manager.session(0)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        primary = kv.primary_of(key)
        outcomes = []

        def txn():
            outcome = yield from session.run([key], [key], t_end=100_000.0)
            outcomes.append(outcome)

        def racer():
            while manager.stats[primary].lock_rpcs == 0:
                yield 5.0
            fm.crash(primary)

        sim.process(txn())
        sim.process(racer())
        sim.run()
        (outcome,) = outcomes
        assert outcome.committed
        assert outcome.crash_aborts >= 1
        assert sum(s.crash_aborts for s in manager.stats) >= 1
        # The commit landed on the promoted primary.
        promoted = kv.current_primary(kv.key_index(key))
        assert promoted != primary
        assert kv.stores[promoted].current_version(kv.key_index(key)) >= 2

    def test_crash_aborts_reported_in_txn_rows(self):
        kv = small_kv()
        FailoverManager(kv)
        manager = TxnManager(kv)
        rows = manager.txn_rows()
        assert all("crash_aborts" in row for row in rows)
        assert all("fenced_locks" in row for row in rows)
        assert all("partial_commits" in row for row in rows)


class TestMixDeterminismAndHeap:
    CFG = dict(
        n_shards=4,
        n_objects=24,
        object_size=256,
        duration_ns=60_000.0,
        warmup_ns=5_000.0,
        cycles=3,
        seed=41,
    )

    def fingerprint(self, result):
        return (
            result.reads_completed,
            result.reads_during_outage,
            result.writes_completed,
            result.commits,
            result.crash_aborts,
            result.promotions,
            result.read_latency.values,
            result.shard_rows,
            result.txn_rows,
        )

    def test_failover_runs_are_deterministic(self):
        a = run_failover_mix(FailoverMixConfig(**self.CFG))
        b = run_failover_mix(FailoverMixConfig(**self.CFG))
        assert self.fingerprint(a) == self.fingerprint(b)

    def test_soak_keeps_heap_bounded(self):
        """Three crash/recovery cycles of RPC watchdog churn: the
        cancelled-entry compaction keeps the event heap proportional to
        live work instead of growing with every completed RPC."""
        cfg = FailoverMixConfig(**self.CFG)
        kv = ShardedKV(ShardedConfig.of(cfg))
        manager = TxnManager(kv)
        fm = FailoverManager(kv, cfg.fault_schedule())
        sim = kv.cluster.sim
        t_end = cfg.duration_ns
        peak = {"heap": 0}

        def reader(session, label):
            i = label
            keys = kv.keys()
            while sim.now < t_end:
                yield from session.lookup(keys[i % len(keys)], t_end)
                i += 1

        def writer(client, label):
            i = label
            keys = kv.keys()
            while sim.now < t_end:
                yield kv.put(client, keys[i % len(keys)])
                yield 100.0
                i += 1

        def txn(session, label):
            keys = kv.keys()
            i = label
            while sim.now < t_end:
                ks = [keys[(i + j) % len(keys)] for j in range(3)]
                yield from session.run(ks, ks[:1], t_end)
                i += 1

        def monitor():
            while sim.now < t_end:
                peak["heap"] = max(peak["heap"], sim.heap_size)
                yield 250.0

        for client in range(4):
            sim.process(reader(kv.reader_session(client), client))
            sim.process(writer(client, client))
            sim.process(txn(manager.session(client), client))
        sim.process(monitor())
        sim.run()

        assert fm.stats.crashes == 3
        assert fm.stats.recoveries == 3
        # Lazy deletion alone would leave one dead watchdog per served
        # RPC (thousands here); the pending set must stay within a
        # small multiple of the live process count and drain to zero.
        assert sim.compactions >= 1
        assert peak["heap"] < 2_000
        assert sim.heap_size == 0


class TestSpecs:
    def test_registered(self):
        names = registry.names()
        assert "failover_availability" in names
        assert "failover_atomicity" in names

    def test_availability_reads_continue_during_outage(self):
        result = run_sweep(
            FAILOVER_AVAILABILITY_SPEC, scale=0.2, axes={"cycles": (3,)}
        )
        (row,) = result.rows
        assert row["reads"] > 0
        assert row["reads_during_outage"] > 0
        assert row["writes_during_outage"] > 0
        assert row["promotions"] > 0
        assert row["recoveries"] == 3
        assert row["undetected_violations"] == 0

    def test_atomicity_zero_violations_across_cycles(self):
        result = run_sweep(FAILOVER_ATOMICITY_SPEC, scale=0.2)
        (row,) = result.rows
        for label in ("sabre", "percl", "checksum", "drtm"):
            assert row[f"{label}_violations"] == 0
            assert row[f"{label}_torn_reads"] == 0
            assert row[f"{label}_reads"] > 0

    def test_atomicity_parallel_sweep_byte_identical_to_serial(self):
        serial = run_sweep(FAILOVER_ATOMICITY_SPEC, scale=0.1)
        parallel = run_sweep(FAILOVER_ATOMICITY_SPEC, scale=0.1, jobs=2)
        assert repr(serial.rows) == repr(parallel.rows)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FailoverMixConfig(replication=1).validate()
        with pytest.raises(ConfigError):
            FailoverMixConfig(cycles=-1).validate()
        with pytest.raises(ConfigError):
            # Plan falls off the end of the run.
            FailoverMixConfig(cycles=10).validate()
        with pytest.raises(ConfigError):
            # So does the fault lane (first window at 0.2, five 0.15
            # windows with 0.05 gaps: the last closes at 1.15).
            FailoverMixConfig(fault_kind="gray", fault_windows=5).validate()


class TestReviewRegressions:
    def test_watchdog_on_slow_but_live_shard_does_not_fail_the_call(self):
        """A reply that merely outlives the watchdog must not be
        treated as a crash: the lock a slow shard actually acquired
        would be orphaned forever (and a slow put would double-apply).
        The watchdog re-arms while the peer's lease is intact."""
        kv = small_kv()
        kv.arm_watchdogs(100.0)  # far below one RTT; armed first, it wins
        FailoverManager(kv)
        manager = TxnManager(kv)
        session = manager.session(0)
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        outcomes = []

        def txn():
            outcome = yield from session.run([key], [key], t_end=200_000.0)
            outcomes.append(outcome)

        kv.cluster.sim.process(txn())
        kv.cluster.sim.run()
        (outcome,) = outcomes
        assert outcome.committed
        assert outcome.crash_aborts == 0
        # No orphaned lock, and exactly one committed update.
        assert not is_locked(kv.stores[primary].current_version(idx))
        assert kv.stores[primary].current_version(idx) == 2

    def test_slow_put_does_not_double_apply(self):
        kv = small_kv()
        kv.arm_watchdogs(50.0)
        FailoverManager(kv)
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        acks = []

        def client():
            ack = yield kv.put(0, key)
            acks.append(ack)

        kv.cluster.sim.process(client())
        kv.cluster.sim.run()
        assert acks == [b"\x01"]
        assert kv.stores[primary].current_version(idx) == 2
        assert kv.write_stats[primary].primary_updates == 1

    def test_plan_crashing_into_a_resync_window_rejected_up_front(self):
        """A crash scheduled while the shard is still re-syncing from
        the previous fault must fail at construction, not unwind the
        simulation from a callback."""
        kv = small_kv()
        with pytest.raises(ConfigError):
            FailoverManager(
                kv, crashes((0, 1_000.0, 2_000.0), (0, 2_000.0, 3_000.0))
            )
        kv = small_kv()
        with pytest.raises(ConfigError):
            # The builder accepts gap_ns=0, but back-to-back crashes of
            # the same shard cannot fit its re-sync window.
            FailoverManager(
                kv,
                cycle_fault_schedule(
                    "crash", [0], 2, first_ns=1_000.0, width_ns=2_000.0,
                    gap_ns=0.0,
                ),
            )

    def test_plan_with_enough_uptime_still_accepted(self):
        kv = small_kv()
        fm = FailoverManager(
            kv,
            cycle_fault_schedule(
                "crash", [0, 1], 4, first_ns=5_000.0, width_ns=5_000.0,
                gap_ns=20_000.0,
            ),
        )
        kv.cluster.sim.run()
        assert fm.stats.crashes == 4
        assert fm.stats.recoveries == 4

    def test_stale_commit_after_resync_does_not_replicate_phantoms(self):
        """A commit whose lock died in a crash + re-sync must neither
        apply nor replicate: backups may never run ahead of the current
        primary with a write no client was ever acked for."""
        kv = small_kv()
        fm = FailoverManager(kv)
        manager = TxnManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        old_primary = kv.primary_of(key)

        def scenario():
            # Acquire the lock the regular way (owner token 5)...
            reply = yield kv.client_rpc(0).call(
                kv.shards[old_primary].node_id,
                "txn_lock",
                kv.epoch.to_bytes(8, "little")
                + (5).to_bytes(8, "little")
                + idx.to_bytes(8, "little"),
            )
            assert reply.startswith(b"\x01")
            # ... then lose it to a crash + re-sync round trip.
            fm.crash(old_primary)
            fm.recover(old_primary)
            while not kv.serving[old_primary]:
                yield 500.0
            # The straggling commit reaches the demoted, re-synced shard.
            yield kv.client_rpc(0).call(
                kv.shards[old_primary].node_id,
                "txn_commit",
                (5).to_bytes(8, "little") + idx.to_bytes(8, "little"),
            )

        sim.process(scenario())
        sim.run()
        # Nothing applied, nothing replicated: every replica still
        # holds the pre-transaction image.
        for shard in kv.replicas_of(key):
            assert kv.stores[shard].current_version(idx) == 0, shard
        assert manager.stats[old_primary].partial_commits == 1

    def test_stale_release_cannot_unlock_a_new_owners_lock(self):
        """ABA guard: after a crash + re-sync restores the pre-crash
        committed version, a new transaction's lock republishes the
        same odd value — a straggling release from the *old* owner
        must not unlock it (owner tokens, not bare versions)."""
        kv = small_kv()
        fm = FailoverManager(kv)
        TxnManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        shard = kv.primary_of(key)

        def scenario():
            # Owner A locks (token 7) at version 0 -> 1.
            reply = yield kv.client_rpc(0).call(
                kv.shards[shard].node_id,
                "txn_lock",
                kv.epoch.to_bytes(8, "little")
                + (7).to_bytes(8, "little")
                + idx.to_bytes(8, "little"),
            )
            assert reply.startswith(b"\x01")
            # Crash + recover: A's lock dies, version restored to 0.
            fm.crash(shard)
            fm.recover(shard)
            while not kv.serving[shard]:
                yield 500.0
            assert not is_locked(kv.stores[shard].current_version(idx))
            # The shard was demoted; route the new lock to the current
            # primary... but the ABA hazard is on the *same* store, so
            # forge owner B's lock directly at the recovered shard
            # after promoting it back for this key.
            fm.crash(kv.current_primary(kv.key_index(key)))
            assert kv.current_primary(kv.key_index(key)) == shard
            reply = yield kv.client_rpc(0).call(
                kv.shards[shard].node_id,
                "txn_lock",
                kv.epoch.to_bytes(8, "little")
                + (9).to_bytes(8, "little")
                + idx.to_bytes(8, "little"),
            )
            assert reply.startswith(b"\x01")  # B holds version 1 again
            # A's straggling release (token 7, restore version 0).
            yield kv.client_rpc(0).call(
                kv.shards[shard].node_id,
                "txn_release",
                (7).to_bytes(8, "little")
                + idx.to_bytes(8, "little")
                + (0).to_bytes(8, "little"),
            )
            # B's lock survives; B's own release (token 9) works.
            assert is_locked(kv.stores[shard].current_version(idx))
            yield kv.client_rpc(0).call(
                kv.shards[shard].node_id,
                "txn_release",
                (9).to_bytes(8, "little")
                + idx.to_bytes(8, "little")
                + (0).to_bytes(8, "little"),
            )
            assert kv.stores[shard].current_version(idx) == 0

        sim.process(scenario())
        sim.run()

    def test_put_deadline_bounds_a_permanent_total_outage(self):
        """put(t_end=...) returns None instead of polling forever when
        every replica of the key is permanently down."""
        kv = small_kv()
        fm = FailoverManager(kv)
        key = kv.keys()[0]
        for shard in kv.replicas_of(key):
            fm.crash(shard)
        acks = []

        def client():
            ack = yield kv.put(0, key, t_end=20_000.0)
            acks.append(ack)

        kv.cluster.sim.process(client())
        kv.cluster.sim.run()  # terminates: the poll is bounded
        assert acks == [None]
        assert kv.cluster.sim.now >= 20_000.0

    def test_replication_survives_unrelated_epoch_bump(self):
        """A replica update in flight when an *unrelated* crash bumps
        the epoch must still apply: fencing it would silently strand
        the backup behind an acked write, and a later promotion would
        serve the stale version."""
        kv = small_kv()
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)
        unrelated = next(
            s for s in range(kv.cfg.n_shards) if s not in (primary, backup)
        )
        acks = []

        def client():
            ack = yield kv.put(0, key)
            acks.append(ack)
            # The ack does not wait for replication; bump the epoch
            # while the shard_replicate RPC is still in flight.
            fm.crash(unrelated)

        sim.process(client())
        sim.run()
        assert acks == [b"\x01"]
        assert kv.stores[primary].current_version(idx) == 2
        # The backup caught up despite the epoch bump mid-replication.
        assert kv.stores[backup].current_version(idx) == 2
        assert kv.write_stats[backup].replica_updates == 1


class TestGrayFaultComposition:
    """The fault injector composed with the service-level failover
    machinery: gray windows must stress — never break — the
    slow-not-dead hardening."""

    def test_gray_window_rearms_watchdog_instead_of_failing_txn(self):
        """A transaction committing through a gray window on its
        primary: the RPC watchdog fires (the shard is far slower than
        the timeout) but must re-arm against the intact lease, so the
        commit lands with zero crash aborts and no orphaned lock."""
        from repro.faults import FaultInjector, FaultSchedule, FaultWindow

        kv = small_kv()
        kv.arm_watchdogs(300.0)
        FailoverManager(kv)
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        FaultInjector(
            kv.cluster,
            FaultSchedule(
                [
                    FaultWindow(
                        "gray",
                        start_ns=0.0,
                        end_ns=150_000.0,
                        node=primary,
                        multiplier=40.0,
                    )
                ]
            ),
        )
        manager = TxnManager(kv)
        session = manager.session(0)
        outcomes = []

        def txn():
            outcome = yield from session.run([key], [key], t_end=200_000.0)
            outcomes.append(outcome)

        kv.cluster.sim.process(txn())
        kv.cluster.sim.run()
        (outcome,) = outcomes
        assert outcome.committed
        assert outcome.crash_aborts == 0
        rearms = sum(e.watchdog_rearms for e in kv.all_endpoints())
        assert rearms > 0  # the watchdog demonstrably fired and re-armed
        timed_out = sum(e.timed_out_calls for e in kv.all_endpoints())
        assert timed_out == 0
        assert not is_locked(kv.stores[primary].current_version(idx))
        assert kv.stores[primary].current_version(idx) == 2

    def test_gray_mix_keeps_serving_with_zero_violations(self):
        """The kv-level gray mix: readers/writers/txns ride through
        slow-but-alive windows; reads keep completing inside the
        windows and the atomicity audit stays clean."""
        cfg = FailoverMixConfig(
            duration_ns=60_000.0,
            seed=37,
            cycles=0,
            fault_kind="gray",
            fault_windows=2,
            gray_multiplier=10.0,
            fallback_after_ns=0.0,
        )
        result = run_failover_mix(cfg)
        assert result.fault_windows == 2
        assert result.reads_during_fault > 0
        assert result.undetected_violations == 0
        assert result.reads_completed > result.reads_during_fault


# ----------------------------------------------------------------------
# which failure timers each lane runs with
# ----------------------------------------------------------------------
INF = float("inf")


def _managed_timers(*managers):
    """``(reroute_check_ns, rpc_timeout_ns)`` of a fresh service after
    building ``managers`` on it, in order."""
    from repro.objstore.reshard import ReshardManager

    build = {"failover": FailoverManager, "reshard": ReshardManager}
    kv = small_kv()
    for name in managers:
        build[name](kv)
    return kv.reroute_check_ns, kv.rpc_timeout_ns


def _fuzz_timers(monkeypatch, **lane):
    """The timers one fuzz round ran with, read as its service closes."""
    from repro.workloads.fuzz import fuzz_round

    seen = []
    close = ShardedKV.close

    def recording_close(kv):
        seen.append((kv.reroute_check_ns, kv.rpc_timeout_ns))
        close(kv)

    monkeypatch.setattr(ShardedKV, "close", recording_close)
    fuzz_round("sabre", 4, seed=3, duration_ns=6_000.0, **lane)
    (timers,) = seen
    return timers


class TestFailureTimers:
    """Pin the (re-route bound, RPC watchdog) pair every lane runs with:
    crash and reshard machinery arm (2 µs, 60 µs), the fault-only fuzz
    lanes a short 8 µs watchdog and no re-route bound, and a healthy
    service neither."""

    @pytest.mark.parametrize(
        "managers, expected",
        [
            ((), (INF, None)),
            (("failover",), (2_000.0, 60_000.0)),
            (("reshard",), (2_000.0, 60_000.0)),
            (("reshard", "failover"), (2_000.0, 60_000.0)),
        ],
        ids=["healthy", "failover", "reshard", "reshard-then-failover"],
    )
    def test_managers_arm_timers(self, managers, expected):
        assert _managed_timers(*managers) == expected

    @pytest.mark.parametrize(
        "lane, expected",
        [
            ({"gray_windows": 2}, (INF, 8_000.0)),
            ({"partition_windows": 2}, (INF, 8_000.0)),
            (
                {"crash_cycles": 1, "gray_windows": 1, "skew_max_ns": 1_000.0},
                (2_000.0, 60_000.0),
            ),
            ({"reshard_adds": 2, "gray_windows": 1}, (2_000.0, 60_000.0)),
        ],
        ids=["gray", "partition", "skew", "reshard"],
    )
    def test_fuzz_lane_timers(self, monkeypatch, lane, expected):
        assert _fuzz_timers(monkeypatch, **lane) == expected
