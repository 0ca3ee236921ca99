"""Unit tests for the multi-object transaction layer: commit applies
and replicates, validation catches interleaved writers, try-locks
conflict instead of deadlocking, aborts roll locks back, and the
per-shard txn stats account for all of it."""

import pytest

from repro.atomicity.locks import is_locked
from repro.common.errors import ConfigError
from repro.objstore.layout import stamped_payload
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager, TxnOutcome, TxnStats

T_END = 500_000.0


def build(**kw):
    defaults = dict(
        n_shards=2,
        replication=2,
        mechanism="sabre",
        object_size=256,
        n_objects=32,
        seed=7,
    )
    defaults.update(kw)
    kv = ShardedKV(ShardedConfig(**defaults))
    return kv, TxnManager(kv)


def run_txn(kv, session, read_keys, write_keys=(), t_end=T_END, **kw):
    out = []

    def proc():
        outcome = yield from session.run(read_keys, write_keys, t_end, **kw)
        out.append(outcome)

    kv.cluster.sim.process(proc())
    kv.cluster.sim.run()
    return out[0]


@pytest.mark.smoke
class TestCommit:
    def test_rmw_commit_applies_and_replicates(self):
        kv, mgr = build()
        session = mgr.session(0)
        keys = ["key-0", "key-1", "key-2"]
        outcome = run_txn(kv, session, keys, write_keys=["key-0", "key-1"])
        assert outcome.committed
        assert outcome.attempts == 1
        for key in ("key-0", "key-1"):
            idx = kv.key_index(key)
            for shard in kv.replicas_of(key):
                assert kv.stores[shard].current_version(idx) == 2
                strip = kv.stores[shard].read(idx)
                assert strip.data == stamped_payload(2, kv.cfg.payload_len)
        # Read-only key untouched.
        idx = kv.key_index("key-2")
        for shard in kv.replicas_of("key-2"):
            assert kv.stores[shard].current_version(idx) == 0

    def test_read_set_carries_observed_versions_and_values(self):
        kv, mgr = build()
        session = mgr.session(0)
        outcome = run_txn(kv, session, ["key-3", "key-4"])
        assert outcome.committed
        for entry in outcome.reads.values():
            assert entry.version == 0
            assert entry.data == stamped_payload(0, kv.cfg.payload_len)
            assert not entry.torn

    def test_read_only_txn_locks_nothing(self):
        kv, mgr = build()
        session = mgr.session(0)
        outcome = run_txn(kv, session, ["key-0", "key-5", "key-9"])
        assert outcome.committed
        assert all(s.lock_rpcs == 0 for s in mgr.stats)
        assert sum(s.validate_rpcs for s in mgr.stats) >= 1

    def test_commits_attributed_to_every_touched_primary(self):
        kv, mgr = build()
        session = mgr.session(0)
        keys = [kv.key_name(i) for i in range(8)]
        shards = {kv.primary_of(k) for k in keys}
        assert shards == {0, 1}  # spans the deployment
        outcome = run_txn(kv, session, keys, write_keys=keys[:4])
        assert outcome.committed
        for shard in shards:
            assert mgr.stats[shard].commits == 1

    def test_unknown_key_rejected(self):
        kv, mgr = build()
        session = mgr.session(0)
        with pytest.raises(ConfigError):
            run_txn(kv, session, ["nope"])

    def test_bad_max_attempts_rejected(self):
        kv, mgr = build()
        session = mgr.session(0)
        with pytest.raises(ConfigError):
            run_txn(kv, session, ["key-0"], max_attempts=0)


@pytest.mark.smoke
class TestValidationAborts:
    def test_interleaved_put_aborts_read_only_validation(self):
        """A writer committing between a txn's read and its validation
        must abort the transaction (stale read set)."""
        kv, mgr = build()
        session = mgr.session(0)
        key = "key-0"
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        sim = kv.cluster.sim
        out = []

        def txn():
            status, reads = yield from session.attempt([key], [], T_END)
            out.append((status, reads))

        def racer():
            # Wait until the txn's read completed, then sneak a
            # committed update in before its validate RPC lands.
            while not session.reader.stats[primary].op_latency.values:
                yield 50.0
            kv.stores[primary].write(idx, stamped_payload(2, kv.cfg.payload_len))

        sim.process(txn())
        sim.process(racer())
        sim.run()
        status, reads = out[0]
        assert status == "abort_validate"
        assert reads[key].version == 0
        assert mgr.stats[primary].validation_aborts == 1

    def test_interleaved_put_aborts_write_set_via_lock_reply(self):
        """The pre-lock version returned by ``txn_lock`` doubles as the
        write-set validation: a conflicting commit between read and
        lock aborts."""
        kv, mgr = build()
        session = mgr.session(0)
        key = "key-0"
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        sim = kv.cluster.sim
        out = []

        def txn():
            status, _reads = yield from session.attempt([key], [key], T_END)
            out.append(status)

        def racer():
            while not session.reader.stats[primary].op_latency.values:
                yield 50.0
            kv.stores[primary].write(idx, stamped_payload(2, kv.cfg.payload_len))

        sim.process(txn())
        sim.process(racer())
        sim.run()
        assert out == ["abort_validate"]
        # The abort rolled the lock back: version is the racer's commit.
        version = kv.stores[primary].current_version(idx)
        assert version == 2
        assert not is_locked(version)
        assert mgr.stats[primary].release_rpcs == 1

    def test_retry_after_abort_commits(self):
        """§7.2's retry policy lifted to transactions: the aborted
        attempt re-reads the fresh versions and commits."""
        kv, mgr = build()
        session = mgr.session(0)
        key = "key-0"
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        sim = kv.cluster.sim
        raced = {"done": False}
        out = []

        def txn():
            outcome = yield from session.run([key], [key], T_END)
            out.append(outcome)

        def racer():
            while not session.reader.stats[primary].op_latency.values:
                yield 50.0
            if not raced["done"]:
                raced["done"] = True
                kv.stores[primary].write(
                    idx, stamped_payload(2, kv.cfg.payload_len)
                )

        sim.process(txn())
        sim.process(racer())
        sim.run()
        outcome = out[0]
        assert outcome.committed
        assert outcome.attempts == 2
        assert outcome.validation_aborts == 1
        assert mgr.stats[primary].retries == 1
        # Final state: racer's commit (v2) then the txn's commit (v4).
        assert kv.stores[primary].current_version(idx) == 4


@pytest.mark.smoke
class TestLockConflicts:
    def _wedge(self, kv, key):
        """Hold the lock on ``key``'s primary copy, as a transaction
        mid-commit would."""
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        store = kv.stores[primary]
        locked = store.current_version(idx) + 1
        store.phys.write(store.version_addr(idx), locked.to_bytes(8, "little"))
        return primary

    def test_lock_conflict_aborts_without_waiting(self):
        # remote_read consumes regardless of the lock word, so the
        # attempt reaches the lock phase and the try-lock — not the
        # read — is what fails.
        kv, mgr = build(mechanism="remote_read")
        session = mgr.session(0)
        key = "key-0"
        primary = self._wedge(kv, key)
        outcome = run_txn(kv, session, [key], write_keys=[key], max_attempts=3)
        # The try-lock on the wedged key conflicts every attempt — no
        # deadlock, just counted aborts.
        assert not outcome.committed
        assert outcome.lock_aborts == 3
        assert mgr.stats[primary].lock_conflicts == 3

    def test_two_txns_on_shared_keys_serialize(self):
        """Two concurrent transactions over an overlapping write set:
        both eventually commit and every version ends even."""
        kv, mgr = build()
        a, b = mgr.session(0), mgr.session(1 % kv.cfg.clients)
        keys = ["key-0", "key-1", "key-2", "key-3"]
        sim = kv.cluster.sim
        outcomes = []

        def txn(session, write_keys):
            outcome = yield from session.run(keys, write_keys, T_END)
            outcomes.append(outcome)

        sim.process(txn(a, keys[:3]))
        sim.process(txn(b, keys[1:]))
        sim.run()
        assert all(o.committed for o in outcomes)
        for key in keys:
            idx = kv.key_index(key)
            for shard in kv.replicas_of(key):
                version = kv.stores[shard].current_version(idx)
                assert not is_locked(version)
                strip = kv.stores[shard].read(idx)
                assert strip.data == stamped_payload(
                    version, kv.cfg.payload_len
                )

    def test_txn_locks_bounce_concurrent_puts_not_deadlock(self):
        """While a transaction holds locks across RPC round trips,
        plain puts to the same objects bounce off the bounded spin and
        retry — the worker pool never wedges and both finish."""
        kv, mgr = build()
        session = mgr.session(0)
        keys = ["key-0", "key-1"]
        sim = kv.cluster.sim
        done = []

        def txn():
            outcome = yield from session.run(keys, keys, T_END)
            done.append(("txn", outcome.committed))

        def writer():
            for _ in range(3):
                yield kv.put(0, keys[0])
            done.append(("writer", True))

        sim.process(txn())
        sim.process(writer())
        sim.run()
        assert ("txn", True) in done
        assert ("writer", True) in done
        idx = kv.key_index(keys[0])
        version = kv.stores[kv.primary_of(keys[0])].current_version(idx)
        assert version == 8  # one txn commit + three puts, all landed
        assert not is_locked(version)


class TestStats:
    def test_merge_and_rows(self):
        a, b = TxnStats(), TxnStats()
        a.commits, b.commits = 2, 3
        a.lock_conflicts, b.validation_aborts = 1, 4
        a.torn_reads_observed = 5
        a.merge(b)
        assert a.commits == 5
        assert a.lock_conflicts == 1
        assert a.validation_aborts == 4
        assert a.torn_reads_observed == 5
        row = a.as_dict()
        assert row["commits"] == 5
        assert row["validation_aborts"] == 4

    def test_an_added_counter_needs_no_further_edits(self):
        """The counter bag states its fields once: a field added to it
        shows up in ``as_dict`` and ``merge``, in declaration order,
        without touching either method."""
        from dataclasses import dataclass, fields

        @dataclass
        class Grown(TxnStats):
            added_later: int = 0

        names = [f.name for f in fields(TxnStats)] + ["added_later"]
        grown = Grown(**{name: i + 1 for i, name in enumerate(names)})
        assert list(grown.as_dict().items()) == [
            (name, i + 1) for i, name in enumerate(names)
        ]
        grown.merge(Grown(added_later=5))
        assert grown.added_later == len(names) + 5
        assert grown.as_dict()[names[0]] == 1

    def test_outcome_abort_total(self):
        outcome = TxnOutcome(committed=False, lock_aborts=2, validation_aborts=3)
        assert outcome.aborts == 5
