"""Cross-protocol invariants: for one ``(seed, workload)`` every read
mechanism must agree with the committed ground truth; placement must
be byte-identical run to run (and across interpreter hash seeds);
virtual-node placement must stay load-balanced; and a finished run
leaves no object locked and no lock owner recorded."""

import os
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

from repro.atomicity.locks import is_locked
from repro.objstore.layout import stamped_payload
from repro.objstore.protocols import protocol_names
from repro.objstore.ring import HashRing
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager, _encode_u64s
from repro.workloads.elastic import ElasticConfig, run_elastic
from repro.workloads.txn_mix import TxnMixConfig, run_txn_mix

DETECTING = ("sabre", "percl_versions", "checksum", "drtm_lock")


def run_schedule(
    mechanism: str, with_writers: bool, seed: int = 9, rmw: bool = True
):
    """A fixed transaction schedule against one mechanism; returns the
    consumed read-set entries of every committed *and* aborted attempt
    plus the service handle."""
    kv = ShardedKV(
        ShardedConfig(
            n_shards=2,
            replication=2,
            mechanism=mechanism,
            object_size=256,
            n_objects=16,
            seed=seed,
        )
    )
    manager = TxnManager(kv)
    sim = kv.cluster.sim
    t_end = 60_000.0
    session = manager.session(0)
    entries = []

    def txns():
        while sim.now < t_end:
            for start in (0, 4, 8):
                keys = [kv.key_name(start + j) for j in range(4)]
                writes = keys[:2] if rmw else []
                outcome = yield from session.run(keys, writes, t_end)
                entries.extend(outcome.reads.values())

    def writer():
        while sim.now < t_end:
            for idx in range(0, 16, 3):
                yield kv.put(1, kv.key_name(idx))
                yield sim.timeout(120.0)

    sim.process(txns())
    if with_writers:
        sim.process(writer())
    sim.run()
    return entries, kv, manager


class TestGroundTruthValues:
    @pytest.mark.parametrize("mechanism", DETECTING)
    def test_consumed_values_match_committed_ground_truth(self, mechanism):
        """Under racing writers, every payload a detecting protocol
        consumes is a committed image: its words all carry the version
        the protocol observed."""
        entries, _kv, manager = run_schedule(mechanism, with_writers=True)
        assert entries
        for entry in entries:
            assert entry.data == stamped_payload(entry.version, len(entry.data))
        assert manager.merged_stats().torn_reads_observed == 0

    def test_quiescent_store_all_protocols_agree_byte_identically(self):
        """With no writers there is a single committed ground truth and
        all five mechanisms must read exactly it."""
        snapshots = {}
        for mechanism in protocol_names():
            entries, kv, _manager = run_schedule(
                mechanism, with_writers=False, rmw=False
            )
            assert entries
            for entry in entries:
                assert entry.version == 0
                assert entry.data == stamped_payload(0, kv.cfg.payload_len)
            snapshots[mechanism] = sorted(
                (e.key, e.version, e.data) for e in entries
            )
        baseline = snapshots[protocol_names()[0]]
        for mechanism, snapshot in snapshots.items():
            assert set(snapshot) == set(baseline), mechanism


class TestPlacementDeterminism:
    @staticmethod
    def _ring_bytes(seed: int, shards: int = 4, vnodes: int = 64) -> bytes:
        ring = HashRing(range(shards), vnodes=vnodes, seed=seed)
        return b"".join(
            h.to_bytes(8, "little")
            + s.to_bytes(2, "little")
            + v.to_bytes(2, "little")
            for h, s, v in ring._points
        )

    def test_ring_byte_identical_within_process(self):
        assert self._ring_bytes(5) == self._ring_bytes(5)
        assert self._ring_bytes(5) != self._ring_bytes(6)

    def test_ring_byte_identical_across_hash_seeds(self):
        """Placement must not depend on interpreter state: a fresh
        process with a different PYTHONHASHSEED produces the identical
        ring bytes."""
        script = (
            "from repro.objstore.ring import HashRing;"
            "ring = HashRing(range(4), vnodes=64, seed=5);"
            "import sys;"
            "blob = b''.join(h.to_bytes(8, 'little') + s.to_bytes(2, 'little')"
            " + v.to_bytes(2, 'little') for h, s, v in ring._points);"
            "sys.stdout.write(blob.hex())"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        blob = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert bytes.fromhex(blob) == self._ring_bytes(5)

    def test_sharded_placement_identical_across_builds(self):
        cfg = dict(n_shards=4, replication=2, n_objects=64, seed=21)
        a = ShardedKV(ShardedConfig(**cfg))
        b = ShardedKV(ShardedConfig(**cfg))
        assert [a.replicas_of(k) for k in a.keys()] == [
            b.replicas_of(k) for k in b.keys()
        ]


class TestVnodeBalance:
    @pytest.mark.parametrize("seed", (1, 7, 11, 42))
    def test_64_vnodes_bound_shard_imbalance(self, seed):
        """With 64 virtual nodes per shard, the heaviest shard owns at
        most twice the keys of the lightest (the classic consistent-
        hashing variance bound this vnode count buys)."""
        ring = HashRing(range(4), vnodes=64, seed=seed)
        counts = {shard: 0 for shard in range(4)}
        for i in range(4096):
            counts[ring.replicas(f"key-{i}", 1)[0]] += 1
        assert all(count > 0 for count in counts.values())
        assert max(counts.values()) / min(counts.values()) <= 2.0

    def test_single_vnode_is_visibly_worse(self):
        """Sanity check that the bound is earned by the vnodes: with
        one point per shard the imbalance blows well past it."""
        worst = 0.0
        for seed in (1, 7, 11, 42):
            ring = HashRing(range(4), vnodes=1, seed=seed)
            counts = {shard: 0 for shard in range(4)}
            for i in range(4096):
                counts[ring.replicas(f"key-{i}", 1)[0]] += 1
            lightest = max(min(counts.values()), 1)
            worst = max(worst, max(counts.values()) / lightest)
        assert worst > 2.0


#: Simulated time between two mid-run censuses of the lock tokens —
#: shorter than one timed block store, so no yield goes unsampled for
#: long in a run of hundreds of commits.
CENSUS_EVERY_NS = 40.0


@pytest.fixture
def services(monkeypatch):
    """Every ``ShardedKV`` a workload runner builds and closes during
    the test.  While it runs, a census process samples its lock tokens
    every ``CENSUS_EVERY_NS``: a token may exist for ``(shard, obj)``
    only while that header is odd.  On its way into ``close()`` — a
    closed service has no bytes left to audit — it must have shown the
    census held tokens and no orphan, and pass :func:`assert_at_rest`."""
    audited = []
    real_init, real_close = ShardedKV.__init__, ShardedKV.close

    def init(kv, cfg):
        real_init(kv, cfg)
        kv.census_held, kv.census_orphans = 0, []
        sim = kv.cluster.sim

        def census():
            while sim.peek() != float("inf"):  # the run is still going
                for shard, holders in enumerate(kv.lock_holders):
                    for obj, token in holders.items():
                        kv.census_held += 1
                        if not is_locked(kv.stores[shard].current_version(obj)):
                            kv.census_orphans.append((sim.now, shard, obj, token))
                yield sim.timeout(CENSUS_EVERY_NS)

        sim.process(census())

    def close(kv):
        assert kv.census_held > 0, "the census never saw a held lock"
        assert not kv.census_orphans, (
            f"tokens without an odd header: {kv.census_orphans[:5]}"
        )
        assert_at_rest(kv)
        audited.append(kv)
        real_close(kv)

    monkeypatch.setattr(ShardedKV, "__init__", init)
    monkeypatch.setattr(ShardedKV, "close", close)
    return audited


def assert_at_rest(kv: ShardedKV) -> None:
    """After a drained run no hosted object is odd and nobody owns a
    lock: an orphaned lock would show as either."""
    for shard, store in enumerate(kv.stores):
        locked = [
            obj
            for obj in store._objects
            if is_locked(store.current_version(obj))
        ]
        assert not locked, f"shard {shard} left objects {locked} locked"
        assert not kv.lock_holders[shard], (
            f"shard {shard} left owners {dict(kv.lock_holders[shard])}"
        )


@contextmanager
def wall_deadline(seconds: int):
    """Turn a run that never terminates into a failure."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestLockOwnership:
    """A commit's unlocking write and the end of its ownership are one
    step: the object is never unlocked-but-owned, so whoever locks it
    next keeps its own token."""

    def test_acquirer_during_commit_unlock_keeps_its_token(self):
        kv = ShardedKV(
            ShardedConfig(
                n_shards=2,
                replication=1,
                mechanism="sabre",
                object_size=256,
                n_objects=16,
                seed=9,
            )
        )
        manager = TxnManager(kv)
        obj = 3
        shard = kv.current_primary(obj)
        store = kv.stores[shard]
        owners = kv.lock_holders[shard]
        lock = manager._make_lock_handler(shard)
        commit = manager._make_commit_handler(shard)

        def try_lock(token: int) -> None:
            next(
                lock(
                    kv.epoch.to_bytes(8, "little")
                    + token.to_bytes(8, "little")
                    + _encode_u64s([obj])
                )
            )

        try_lock(1)
        assert owners[obj] == 1
        committing = commit((1).to_bytes(8, "little") + _encode_u64s([obj]))
        for _block_time in committing:
            if not is_locked(store.current_version(obj)):
                break  # suspended in the unlocking write's yield
        else:
            pytest.fail("the commit handler never unlocked the object")
        try_lock(2)
        assert owners[obj] == 2
        for _block_time in committing:
            pass
        assert owners[obj] == 2
        assert is_locked(store.current_version(obj))

    def test_zipfian_txn_mix_leaves_no_lock_behind(self, services):
        """Seed 15 of the skewed mix used to orphan a hot key's lock a
        third of the way in; every transaction touching it then aborted
        until the run ended."""
        result = run_txn_mix(
            TxnMixConfig(
                txn_size=4,
                writes_per_txn=2,
                rmw_fraction=0.5,
                distribution="zipfian",
                mechanism="sabre",
                n_shards=4,
                replication=2,
                object_size=256,
                n_objects=2048,
                duration_ns=300_000.0,
                seed=15,
            )
        )
        assert result.commits >= 400
        assert result.undetected_violations == 0
        assert len(services) == 1  # audited at rest, then closed

    def test_migration_racing_a_commit_terminates(self, services):
        """Seed 5: a key's migration locks it inside a commit's final
        yield.  With its token deleted under it the migration spun on
        its own lock forever."""
        with wall_deadline(30):
            result = run_elastic(
                ElasticConfig(
                    duration_ns=60_000.0,
                    txn_sessions_per_client=1,
                    seed=5,
                    compare_baseline=False,
                )
            )
        assert result.undetected_violations == 0
        assert len(services) == 1  # audited at rest, then closed
