"""Tests for the sharded, replicated KV service: consistent-hash
routing, primary/backup placement, read fallback, write replication,
and the SABRe safety property under concurrent shard writers."""

import pytest

from repro.atomicity.locks import is_locked
from repro.common.errors import ConfigError
from repro.objstore.layout import stamped_payload
from repro.objstore.ring import HashRing
from repro.objstore.session import ShardStats
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.workloads.ycsb import YcsbConfig, run_ycsb


def small_cfg(**kw):
    defaults = dict(
        n_shards=2,
        replication=2,
        mechanism="sabre",
        object_size=256,
        n_objects=32,
        seed=7,
    )
    defaults.update(kw)
    return ShardedConfig(**defaults)


class TestHashRing:
    def test_routing_is_deterministic_for_a_fixed_seed(self):
        keys = [f"key-{i}" for i in range(200)]
        a = HashRing(range(4), vnodes=32, seed=9)
        b = HashRing(range(4), vnodes=32, seed=9)
        assert [a.replicas(k, 1) for k in keys] == [b.replicas(k, 1) for k in keys]
        assert [a.replicas(k, 3) for k in keys] == [b.replicas(k, 3) for k in keys]

    def test_different_seed_reshuffles_placement(self):
        keys = [f"key-{i}" for i in range(200)]
        a = HashRing(range(4), vnodes=32, seed=9)
        b = HashRing(range(4), vnodes=32, seed=10)
        assert [a.replicas(k, 1) for k in keys] != [b.replicas(k, 1) for k in keys]

    def test_replicas_distinct_and_primary_first(self):
        ring = HashRing(range(5), vnodes=16, seed=3)
        for i in range(100):
            replicas = ring.replicas(f"key-{i}", 3)
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.replicas(f"key-{i}", 1)[0]

    def test_all_shards_receive_keys(self):
        ring = HashRing(range(4), vnodes=64, seed=1)
        owners = {ring.replicas(f"key-{i}", 1)[0] for i in range(512)}
        assert owners == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ConfigError):
            HashRing([], vnodes=8)
        with pytest.raises(ConfigError):
            HashRing(range(2), vnodes=0)
        with pytest.raises(ConfigError):
            HashRing(range(2)).replicas("k", 0)

    def test_replicas_clamp_to_shard_count(self):
        """Asking for more replicas than shards yields every shard
        exactly once (successor lists cannot invent shards)."""
        ring = HashRing(range(3), vnodes=8, seed=5)
        for key in ("a", "b", "key-7"):
            replicas = ring.replicas(key, 10)
            assert sorted(replicas) == [0, 1, 2]
            assert replicas[0] == ring.replicas(key, 1)[0]

    def test_replicas_property_over_seeds(self):
        """Property sweep: for every (seed, vnodes, shard count) and
        every n — below, at, and above the shard count — the successor
        list has exactly ``min(n, shards)`` *distinct* shards, starts
        at the primary, and is prefix-consistent (replicas(k, m) is a
        prefix of replicas(k, n) for m <= n)."""
        for seed in (1, 2, 9, 41, 1337):
            for shards in (1, 2, 3, 5, 8):
                for vnodes in (1, 3, 64):
                    ring = HashRing(range(shards), vnodes=vnodes, seed=seed)
                    for i in range(25):
                        key = f"key-{i}"
                        full = ring.replicas(key, shards + 3)
                        assert len(full) == shards
                        assert len(set(full)) == shards
                        assert full[0] == ring.replicas(key, 1)[0]
                        for n in range(1, shards + 1):
                            prefix = ring.replicas(key, n)
                            assert len(prefix) == n
                            assert len(set(prefix)) == n
                            assert prefix == full[:n]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(mechanism="bogus").validate()
        with pytest.raises(ConfigError):
            small_cfg(replication=3, n_shards=2).validate()
        with pytest.raises(ConfigError):
            small_cfg(n_shards=0).validate()
        with pytest.raises(ConfigError):
            small_cfg(object_size=8).validate()

    def test_default_clients_track_shards(self):
        assert small_cfg(n_shards=3).clients == 3
        assert small_cfg(n_shards=3, n_clients=1).clients == 1

    def test_cluster_sizes_to_shards_plus_clients(self):
        cfg = small_cfg(n_shards=3, n_clients=2)
        assert cfg.cluster_config().nodes == 5


class TestPlacement:
    def test_placement_deterministic_across_builds(self):
        a = ShardedKV(small_cfg())
        b = ShardedKV(small_cfg())
        assert [a.replicas_of(k) for k in a.keys()] == [
            b.replicas_of(k) for k in b.keys()
        ]

    def test_every_replica_holds_the_object(self):
        kv = ShardedKV(small_cfg())
        for key in kv.keys():
            idx = kv.key_index(key)
            for shard in kv.replicas_of(key):
                handle = kv.stores[shard].handle(idx)
                assert handle.data_len == kv.cfg.payload_len

    def test_unknown_key_rejected(self):
        kv = ShardedKV(small_cfg())
        with pytest.raises(ConfigError):
            kv.key_index("nope")

    def test_objects_spread_across_shards(self):
        kv = ShardedKV(small_cfg(n_shards=4, n_objects=256, replication=1))
        sizes = [len(store) for store in kv.stores]
        assert sum(sizes) == 256
        assert min(sizes) > 0


class TestWritePath:
    def test_put_updates_primary_and_replicates_to_backup(self):
        kv = ShardedKV(small_cfg())
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)
        acks = []

        def client():
            reply = yield kv.put(0, key)
            acks.append(reply)

        sim.process(client())
        sim.run()
        assert acks == [b"\x01"]
        assert kv.stores[primary].current_version(idx) == 2
        # Asynchronous replication completed by the time the sim drained.
        assert kv.stores[backup].current_version(idx) == 2
        assert kv.write_stats[primary].primary_updates == 1
        assert kv.write_stats[backup].replica_updates == 1

    def test_concurrent_puts_to_one_key_serialize(self):
        kv = ShardedKV(small_cfg())
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)

        def client(i):
            yield kv.put(0, key)

        for i in range(4):
            sim.process(client(i))
        sim.run()
        # Four committed updates: version advanced by 2 each, ending even.
        version = kv.stores[primary].current_version(idx)
        assert version == 8
        assert not is_locked(version)


class TestReadFallback:
    def _locked_primary_kv(self, fallback_ns):
        kv = ShardedKV(
            small_cfg(mechanism="percl_versions", fallback_after_ns=fallback_ns)
        )
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.replicas_of(key)[0]
        store = kv.stores[primary]
        # Wedge the primary copy: an odd version fails every software
        # check, as if a writer died mid-update.
        locked = store.current_version(idx) + 1
        store.phys.write(store.version_addr(idx), locked.to_bytes(8, "little"))
        return kv, key, primary

    def test_fallback_serves_read_from_backup(self):
        kv, key, primary = self._locked_primary_kv(fallback_ns=2_000.0)
        session = kv.reader_session(0)
        outcome = []

        def reader():
            ok = yield from session.lookup(key, t_end=50_000.0)
            outcome.append(ok)

        kv.cluster.sim.process(reader())
        kv.cluster.sim.run()
        assert outcome == [True]
        backup = kv.replicas_of(key)[1]
        assert session.stats[backup].fallback_reads == 1
        assert session.stats[primary].retries >= 1
        assert len(session.stats[backup].op_latency) == 1

    def test_no_fallback_when_disabled(self):
        kv, key, primary = self._locked_primary_kv(fallback_ns=0.0)
        session = kv.reader_session(0)
        outcome = []

        def reader():
            ok = yield from session.lookup(key, t_end=10_000.0)
            outcome.append(ok)

        kv.cluster.sim.process(reader())
        kv.cluster.sim.run()
        assert outcome == [False]
        assert all(s.fallback_reads == 0 for s in session.stats)


class TestFallbackAudit:
    """Backup-fallback reads must flow through the exact same per-shard
    accounting as primary reads: routed/fallback counters, latency
    samples, and — the regression this class pins — the ground-truth
    torn-read audit.  A torn payload that sneaks past the software
    check must increment ``undetected_violations`` on the serving
    shard whether it was read from a primary or a backup."""

    @staticmethod
    def _torn_but_check_passing_image(kv, shard, idx):
        """Overwrite ``idx``'s copy on ``shard`` with an image whose
        per-cache-line stamps are self-consistent (the percl check
        passes) but whose payload words disagree (ground-truth torn) —
        the signature of the silent violations Table 1 studies."""
        length = kv.cfg.payload_len
        half = (length // 2 // 8) * 8
        torn = stamped_payload(2, half) + stamped_payload(4, length - half)
        store = kv.stores[shard]
        store.phys.write(store.handle(idx).base_addr, kv.layout.pack(2, torn))

    def _kv(self, fallback_ns=2_000.0):
        return ShardedKV(
            ShardedConfig(
                n_shards=2,
                replication=2,
                mechanism="percl_versions",
                object_size=256,
                n_objects=32,
                seed=7,
                fallback_after_ns=fallback_ns,
            )
        )

    def _run_lookup(self, kv, session, key):
        outcome = []

        def reader():
            ok = yield from session.lookup(key, t_end=50_000.0)
            outcome.append(ok)

        kv.cluster.sim.process(reader())
        kv.cluster.sim.run()
        return outcome[0]

    def test_fallback_read_counted_in_audit_like_primary_read(self):
        kv = self._kv()
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)
        # Wedge the primary (odd version: every check fails) and plant
        # the torn-but-valid image on the backup the read falls back to.
        store = kv.stores[primary]
        locked = store.current_version(idx) + 1
        store.phys.write(store.version_addr(idx), locked.to_bytes(8, "little"))
        self._torn_but_check_passing_image(kv, backup, idx)

        session = kv.reader_session(0)
        assert self._run_lookup(kv, session, key) is True
        assert session.stats[backup].fallback_reads == 1
        assert session.stats[backup].reads_routed == 1
        assert len(session.stats[backup].op_latency) == 1
        # The regression: the audit fired on the *fallback* read.
        assert session.stats[backup].undetected_violations == 1
        assert session.stats[primary].undetected_violations == 0

    def test_primary_read_audit_baseline_matches(self):
        """The same planted image on the primary produces the same
        accounting there — fallback and primary paths are symmetric."""
        kv = self._kv(fallback_ns=0.0)
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        self._torn_but_check_passing_image(kv, primary, idx)

        session = kv.reader_session(0)
        assert self._run_lookup(kv, session, key) is True
        assert session.stats[primary].reads_routed == 1
        assert session.stats[primary].fallback_reads == 0
        assert len(session.stats[primary].op_latency) == 1
        assert session.stats[primary].undetected_violations == 1

    def test_fallback_audit_lands_in_merged_shard_rows(self):
        kv = self._kv()
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)
        store = kv.stores[primary]
        locked = store.current_version(idx) + 1
        store.phys.write(store.version_addr(idx), locked.to_bytes(8, "little"))
        self._torn_but_check_passing_image(kv, backup, idx)

        session = kv.reader_session(0)
        assert self._run_lookup(kv, session, key) is True
        rows = {row["shard"]: row for row in kv.shard_load()}
        assert rows[backup]["undetected_violations"] == 1
        assert rows[backup]["fallback_reads"] == 1
        assert rows[primary]["undetected_violations"] == 0


class TestSafety:
    def test_concurrent_writers_on_one_shard_never_tear_sabre_reads(self):
        """The headline safety property, scaled out: a single shard
        under write-heavy YCSB-A from several client nodes serves only
        atomic SABRes — the ground-truth audit finds zero torn reads."""
        cfg = YcsbConfig(
            workload="A",
            distribution="zipfian",
            mechanism="sabre",
            n_shards=1,
            n_clients=3,
            replication=1,
            object_size=512,
            n_objects=8,  # hot objects: maximize reader/writer conflicts
            duration_ns=80_000.0,
            warmup_ns=10_000.0,
            seed=23,
        )
        result = run_ycsb(cfg)
        assert result.writes_completed > 0
        assert result.reads_completed > 0
        assert result.undetected_violations == 0
        # Conflicts genuinely happened — and every one was caught by
        # the destination hardware (aborts), not leaked to readers.
        assert result.sabre_aborts > 0
        assert result.retries > 0

    def test_shard_stats_merge_folds_meters_samples_and_counters(self):
        a, b = ShardStats(), ShardStats()
        for stats, ops in ((a, 3), (b, 2)):
            stats.meter.start(10.0)
            for _ in range(ops):
                stats.meter.record(100)
            stats.meter.stop(20.0)
        a.op_latency.add(5.0)
        b.op_latency.add(7.0)
        a.retries, b.retries = 2, 3
        a.merge(b)
        assert a.meter.ops_total == 5
        assert a.meter.bytes_total == 500
        assert a.meter.elapsed_ns == 10.0  # shared window, not summed
        assert a.op_latency.values == [5.0, 7.0]
        assert a.retries == 5

    def test_sharded_routing_deterministic_end_to_end(self):
        cfg = dict(
            workload="B",
            distribution="uniform",
            mechanism="sabre",
            n_shards=2,
            n_objects=64,
            duration_ns=40_000.0,
            warmup_ns=8_000.0,
            seed=5,
        )
        a = run_ycsb(YcsbConfig(**cfg))
        b = run_ycsb(YcsbConfig(**cfg))
        assert a.reads_completed == b.reads_completed
        assert a.writes_completed == b.writes_completed
        assert a.read_latency.values == b.read_latency.values
        assert a.shard_rows == b.shard_rows


class TestFallbackAccounting:
    """Regression pins for the fallback-read bookkeeping: attempts that
    expire mid-walk must be visible (``fallback_attempts``, retries)
    without fabricating fallback successes, and a consumed read books
    latency, meter, and audit exactly once, on the consuming shard."""

    def _kv3(self, fallback_ns=2_000.0):
        return ShardedKV(
            ShardedConfig(
                n_shards=3,
                replication=3,
                mechanism="percl_versions",
                object_size=256,
                n_objects=32,
                seed=7,
                fallback_after_ns=fallback_ns,
            )
        )

    @staticmethod
    def _wedge(kv, shard, idx):
        """Odd header version: every software check on this copy fails,
        as if a writer died mid-update."""
        store = kv.stores[shard]
        locked = store.current_version(idx) + 1
        store.phys.write(store.version_addr(idx), locked.to_bytes(8, "little"))

    def _lookup(self, kv, session, key, t_end=50_000.0):
        outcome = []

        def reader():
            ok = yield from session.lookup(key, t_end)
            outcome.append(ok)

        kv.cluster.sim.process(reader())
        kv.cluster.sim.run()
        return outcome[0]

    def test_expired_fallback_attempt_is_not_a_fallback_read(self):
        """First backup's grace period expires without a consumed read:
        it books an attempt and retries, never a fallback read — that
        lands once, on the second backup that actually served."""
        kv = self._kv3()
        key = kv.keys()[0]
        idx = kv.key_index(key)
        first, second, third = kv.replicas_of(key)
        self._wedge(kv, first, idx)
        self._wedge(kv, second, idx)

        session = kv.reader_session(0)
        assert self._lookup(kv, session, key) is True
        assert session.stats[second].fallback_attempts == 1
        assert session.stats[second].fallback_reads == 0
        assert session.stats[second].retries >= 1
        assert len(session.stats[second].op_latency) == 0
        assert session.stats[third].fallback_attempts == 1
        assert session.stats[third].fallback_reads == 1
        assert len(session.stats[third].op_latency) == 1
        # Exactly one consumed read across the whole walk.
        assert sum(len(s.op_latency) for s in session.stats) == 1

    def test_deadline_expiry_mid_walk_drops_nothing_silently(self):
        """Every replica wedged: the lookup fails, and the failure is
        fully accounted — attempts and retries everywhere it tried,
        zero fallback reads, zero latency samples, zero audits."""
        kv = self._kv3()
        key = kv.keys()[0]
        idx = kv.key_index(key)
        for shard in kv.replicas_of(key):
            self._wedge(kv, shard, idx)

        session = kv.reader_session(0)
        assert self._lookup(kv, session, key, t_end=12_000.0) is False
        walked = kv.replicas_of(key)
        assert all(session.stats[s].reads_routed == 1 for s in walked)
        assert sum(s.fallback_attempts for s in session.stats) == 2
        assert all(s.fallback_reads == 0 for s in session.stats)
        assert all(s.retries >= 1 for s in [session.stats[s] for s in walked])
        assert sum(len(s.op_latency) for s in session.stats) == 0
        assert sum(s.undetected_violations for s in session.stats) == 0


class TestPutBackoffAccounting:
    """The bounded-spin client-retry path: busy bounces and client
    re-issues stay paired per shard, re-issues back off with growing,
    deterministic, jittered gaps, and the pairing survives a mid-put
    promotion."""

    def _kv(self, **kw):
        defaults = dict(
            n_shards=2,
            replication=2,
            mechanism="sabre",
            object_size=256,
            n_objects=16,
            seed=11,
        )
        defaults.update(kw)
        return ShardedKV(ShardedConfig(**defaults))

    @staticmethod
    def _hold_lock(kv, shard, idx, until_ns):
        """Wedge the object's lock now; release it at ``until_ns`` (a
        stand-in for a transaction holding the lock across RPCs)."""
        store = kv.stores[shard]
        version = store.current_version(idx)
        store.phys.write(
            store.version_addr(idx), (version + 1).to_bytes(8, "little")
        )
        kv.cluster.sim.call_at(
            until_ns,
            lambda: store.phys.write(
                store.version_addr(idx), version.to_bytes(8, "little")
            ),
        )

    def _run_put(self, kv, key):
        done = []

        def client():
            ack = yield kv.put(0, key)
            done.append((ack, kv.cluster.sim.now))

        kv.cluster.sim.process(client())
        kv.cluster.sim.run()
        return done[0]

    def test_busy_rejects_pair_with_write_retries(self):
        kv = self._kv()
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        self._hold_lock(kv, primary, idx, until_ns=30_000.0)
        ack, _t = self._run_put(kv, key)
        assert ack == b"\x01"
        ws = kv.write_stats[primary]
        assert ws.busy_rejects == ws.write_retries
        assert ws.busy_rejects >= 2
        assert ws.primary_updates == 1

    def test_backoff_grows_and_is_deterministic(self):
        def trace():
            kv = self._kv()
            key = kv.keys()[0]
            idx = kv.key_index(key)
            primary = kv.primary_of(key)
            self._hold_lock(kv, primary, idx, until_ns=30_000.0)
            issues = []
            endpoint = kv.client_rpc(0)
            orig = endpoint.call

            def spy(dst, name, payload, timeout_ns=None):
                if name == "shard_put":
                    issues.append(kv.cluster.sim.now)
                return orig(dst, name, payload, timeout_ns=timeout_ns)

            endpoint.call = spy
            ack, t_done = self._run_put(kv, key)
            assert ack == b"\x01"
            return issues, t_done

        issues_a, done_a = trace()
        issues_b, done_b = trace()
        assert issues_a == issues_b  # jitter is seeded, not wall-clock
        assert done_a == done_b
        assert len(issues_a) >= 4
        gaps = [b - a for a, b in zip(issues_a, issues_a[1:])]
        # Exponential growth dominates the jitter by the later gaps.
        assert gaps[-1] > gaps[0]

    def test_pairing_survives_promotion_mid_put(self):
        from repro.faults import FailoverManager

        kv = self._kv()
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)
        self._hold_lock(kv, primary, idx, until_ns=50_000.0)
        # Crash the wedged primary while the put is bouncing on it.
        sim.call_at(6_000.0, lambda: fm.crash(primary))
        ack, _t = self._run_put(kv, key)
        assert ack == b"\x01"
        old = kv.write_stats[primary]
        assert old.busy_rejects == old.write_retries >= 1
        assert old.primary_updates == 0
        # The re-issue after the crash landed on the promotee.
        assert kv.write_stats[backup].primary_updates == 1
        assert kv.stores[backup].current_version(idx) == 2
