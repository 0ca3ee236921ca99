"""Optimistic multi-object transactions over the sharded KV service.

FaRM's real workload is not single-key lookups but multi-object
transactions whose read sets are validated by exactly the per-object
atomicity mechanisms Table 1 compares (§2.1).  This module adds that
layer on top of :class:`~repro.objstore.sharded.ShardedKV`:

* A :class:`TxnSession` executes the **read phase** through the
  session's pluggable :class:`~repro.objstore.protocols.ReadProtocol`
  — each consumed read carries the committed version the mechanism
  vouched for (for SABRes, the hardware verdict's version) plus the
  payload snapshot, recorded as a :class:`TxnRead`.
* The **commit phase** is FaRM-style optimistic concurrency control
  over :class:`~repro.sonuma.rpc.RpcEndpoint` generator handlers, so
  every lock/apply write is charged through the owner's *timed* memory
  hierarchy and destination-side SABRe hardware snoops it exactly like
  any local writer:

  1. ``txn_lock`` — try-lock every write-set object on its primary
     (version goes odd through the timed chip).  The reply carries the
     pre-lock versions, which double as the write-set validation: a
     pre-lock version differing from the version the read observed
     means a conflicting commit slipped in between.
  2. ``txn_validate`` — for read-only keys, re-check that the primary
     still holds exactly the version the read observed (and that no
     writer holds the lock).
  3. ``txn_commit`` — apply each new image block-by-block through the
     timed memory system and publish the even version; backups get the
     same asynchronous replication RPCs as the plain write path.
  4. ``txn_release`` — abort path: restore the pre-lock versions (the
     data was never touched, so readers simply keep seeing the old
     committed image).

  Locks are acquired in globally sorted ``(shard, object)`` order and
  every lock is a *try*-lock, so transactions cannot deadlock: a
  conflict aborts (and retries) instead of waiting.

* :class:`TxnStats` tracks the per-shard outcome counters — commits,
  validation aborts, lock conflicts, retries — plus a transaction-side
  torn-read audit: every read-set payload is checked against the
  ground truth (:func:`~repro.objstore.layout.torn_words`), which is
  how the fuzz suite shows ``remote_read`` consuming torn snapshots
  that every detecting mechanism rejects.

Values follow the repo-wide ground-truth convention: an object's
committed payload is its version stamped into every word, so a
transactional write is "bump the version by two and restamp" and the
audit stays byte-exact across protocols, shards, and replicas.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atomicity.locks import commit_version, is_locked, lock_version
from repro.common.errors import (
    ConfigError,
    LinkPartitionedError,
    ShardCrashedError,
)
from repro.objstore.layout import stamped_payload, torn_words
from repro.objstore.session import OUTAGE_POLL_NS, ReaderSession
from repro.objstore.sharded import (
    REPLY_BUSY,
    REPLY_FENCED,
    REPLY_OK,
    ShardedKV,
)

#: Reply tags for the commit-protocol RPCs — the same wire tags the put
#: path uses (:mod:`repro.objstore.sharded`), aliased to this layer's
#: vocabulary (a failed try-lock is "busy": the client retries).
_OK = REPLY_OK
_FAIL = REPLY_BUSY
_FENCED = REPLY_FENCED

#: Poll interval for a lock release refused by a partition window (a
#: lock on a live-but-unreachable shard must not leak; see
#: :meth:`TxnSession._release`).
RELEASE_RETRY_NS = 1_000.0


def _encode_u64s(values: Sequence[int]) -> bytes:
    return b"".join(v.to_bytes(8, "little") for v in values)


def _decode_u64s(blob: bytes) -> List[int]:
    return [
        int.from_bytes(blob[i : i + 8], "little")
        for i in range(0, len(blob), 8)
    ]


# ----------------------------------------------------------------------
# statistics and read-set entries
# ----------------------------------------------------------------------


@dataclass
class TxnStats:
    """Per-shard transaction counters (attributed to a key's *primary*
    shard; increments happen between simulation yields, so they are
    race-free like every other counter in the repo)."""

    commits: int = 0
    validation_aborts: int = 0
    lock_conflicts: int = 0
    retries: int = 0
    lock_rpcs: int = 0
    validate_rpcs: int = 0
    commit_rpcs: int = 0
    release_rpcs: int = 0
    #: Release RPCs re-sent because a partition window refused them:
    #: locks on a *live* shard must never leak, so the abort path
    #: polls until the link heals (or the shard actually crashes).
    release_retries: int = 0
    #: Attempts force-aborted because a shard crashed (typed RPC
    #: failure) or fenced the attempt after a view change — the
    #: distinct abort reason failover injects, separate from the
    #: optimistic-concurrency aborts above.
    crash_aborts: int = 0
    #: Try-locks this shard refused for a stale epoch or ownership.
    fenced_locks: int = 0
    #: Commit-phase write-set objects whose apply was skipped *or*
    #: never confirmed, counted per object: the handler counts objects
    #: it skipped because their lock died in a crash + re-sync, and
    #: the client counts every object of a commit RPC that failed with
    #: a typed error or fence — for those the apply may actually have
    #: landed before the crash ate the reply, so this is an upper
    #: bound on unapplied objects, not an exact count (FaRM resolves
    #: the ambiguity from its log — this reproduction only counts it).
    partial_commits: int = 0
    #: Read-set payloads the ground-truth audit found torn.  Detecting
    #: protocols never consume one; ``remote_read`` does under
    #: conflicting writers — the fuzz suite pins both directions.
    torn_reads_observed: int = 0

    def merge(self, other: "TxnStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class TxnRead:
    """One read-set entry: what the protocol observed for ``key``."""

    key: str
    shard: int
    version: int
    data: Optional[bytes]

    @property
    def torn(self) -> bool:
        """Ground-truth audit of the observed payload."""
        if self.data is None:
            return False
        torn, _words = torn_words(self.data)
        return torn


@dataclass
class TxnOutcome:
    """Result of :meth:`TxnSession.run`: the final attempt's read set
    plus how the transaction got there."""

    committed: bool
    attempts: int = 0
    lock_aborts: int = 0
    validation_aborts: int = 0
    #: Attempts force-aborted by a crashed or fenced shard.
    crash_aborts: int = 0
    timed_out: bool = False
    reads: Dict[str, TxnRead] = field(default_factory=dict)

    @property
    def aborts(self) -> int:
        return self.lock_aborts + self.validation_aborts + self.crash_aborts


# ----------------------------------------------------------------------
# the owner-side commit protocol (RPC handlers)
# ----------------------------------------------------------------------


class TxnManager:
    """Registers the commit-protocol handlers on every shard's RPC
    endpoint and owns the per-shard :class:`TxnStats`.

    Create one manager per :class:`ShardedKV`; sessions come from
    :meth:`session`.  The manager piggybacks on the service's existing
    endpoints and worker pools — a transaction commit competes with
    plain puts for the same dispatcher, which is exactly the contention
    the experiments measure.
    """

    def __init__(self, kv: ShardedKV):
        self.kv = kv
        self.stats = [TxnStats() for _ in range(kv.provisioned)]
        #: Owner tokens, one per commit attempt (deterministic), so
        #: handlers can tell this attempt's locks from anyone else's.
        self._tokens = itertools.count(1)
        for shard in range(kv.provisioned):
            endpoint = kv.shard_rpc(shard)
            endpoint.register("txn_lock", self._make_lock_handler(shard))
            endpoint.register("txn_validate", self._make_validate_handler(shard))
            endpoint.register("txn_commit", self._make_commit_handler(shard))
            endpoint.register("txn_release", self._make_release_handler(shard))

    def session(self, client_index: int) -> "TxnSession":
        return TxnSession(self, client_index)

    # ------------------------------------------------------------------
    def merged_stats(self) -> TxnStats:
        merged = TxnStats()
        for stats in self.stats:
            merged.merge(stats)
        return merged

    def txn_rows(self) -> List[Dict[str, int]]:
        """One row per shard: the txn counters keyed for tables."""
        rows = []
        for shard, stats in enumerate(self.stats):
            row: Dict[str, int] = {"shard": shard}
            row.update(stats.as_dict())
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # handlers — owner-side, on the shard's timed memory hierarchy
    # ------------------------------------------------------------------
    def _make_lock_handler(self, shard: int):
        kv = self.kv

        def handler(payload: bytes):
            """Try-lock each object; all checks *and* lock stores land
            before the first yield, so the acquisition is atomic with
            respect to every other handler and reader process.

            The try-lock is *fenced*: the first 8 payload bytes carry
            the client's epoch, and the lock is refused outright when
            that epoch is stale, this shard is not serving (crashed or
            still re-syncing), or it is no longer the current primary
            of every named object — a transaction can never pin objects
            on a shard the promoted view has moved on from.

            The next 8 bytes carry the attempt's *owner token*,
            recorded per object so commit/release act only on locks
            this very attempt acquired (bare version values are
            ABA-vulnerable across a crash + re-sync)."""
            costs = kv.cfg.costs
            store = kv.stores[shard]
            epoch = int.from_bytes(payload[:8], "little")
            token = int.from_bytes(payload[8:16], "little")
            ids = _decode_u64s(payload[16:])
            if (
                epoch != kv.epoch
                or not kv.serving[shard]
                or any(kv.current_primary(obj) != shard for obj in ids)
            ):
                self.stats[shard].fenced_locks += 1
                return _FENCED, costs.writer_block_ns
            pre: List[int] = []
            for obj in ids:
                version = store.current_version(obj)
                if is_locked(version):
                    # Held by a writer or another transaction: fail
                    # fast — the client releases and retries, which is
                    # what makes the protocol deadlock-free.
                    return _FAIL, costs.writer_block_ns * len(ids)
                pre.append(version)
            core = kv.next_writer_core(shard)
            latency = 0.0
            for obj, version in zip(ids, pre):
                block_ns = kv.lock_object(shard, obj, core, version, token)
                latency += max(block_ns, costs.writer_block_ns)
            # Lock hold time is simulated time: the timed stores above
            # (plus the writer's fixed overhead) are charged before the
            # reply leaves, and the locks stay odd throughout.
            yield costs.writer_fixed_ns + latency
            return _OK + _encode_u64s(pre), 0.0

        return handler

    def _make_validate_handler(self, shard: int):
        kv = self.kv

        def handler(payload: bytes):
            """Read-set validation: the primary must still hold exactly
            the committed version the read observed.  Fenced like the
            try-lock (stale epoch / not serving), so validation cannot
            vouch for reads against a superseded view."""
            epoch = int.from_bytes(payload[:8], "little")
            words = _decode_u64s(payload[8:])
            store = kv.stores[shard]
            if epoch != kv.epoch or not kv.serving[shard]:
                self.stats[shard].fenced_locks += 1
                return _FENCED, kv.cfg.costs.writer_block_ns
            ok = True
            for i in range(0, len(words), 2):
                obj, expected = words[i], words[i + 1]
                if store.current_version(obj) != expected:
                    ok = False
                    break
            # One header re-read per object, charged as service time.
            cost = kv.cfg.costs.writer_block_ns * (len(words) // 2)
            return (_OK if ok else _FAIL), cost

        return handler

    def _make_commit_handler(self, shard: int):
        kv = self.kv

        def handler(payload: bytes):
            """Apply phase: each locked object gets its new committed
            image written block-by-block through the timed chip (so
            in-flight SABRes snoop the stores), then replicates to its
            backups asynchronously — the same tail as a plain put.

            Deliberately *not* epoch-fenced (nor is ``txn_release``):
            these two only ever touch objects this transaction already
            holds locked, and fencing gates lock *acquisition* — a
            holder must always be able to finish or clean up, or a view
            change between lock and commit would strand odd versions on
            live shards forever.  Two crash guards apply instead: a
            non-serving shard (crashed and possibly re-syncing since
            the lock phase) refuses outright, and an object no longer
            owned by this attempt's token (the lock died in a crash +
            re-sync, and possibly someone else locked it since) is
            skipped — its committed image is already the re-synced
            one, and another holder's lock must not be touched."""
            cfg = kv.cfg
            store = kv.stores[shard]
            node = kv.shards[shard]
            ws = kv.write_stats[shard]
            owners = kv.lock_holders[shard]
            token = int.from_bytes(payload[:8], "little")
            ids = _decode_u64s(payload[8:])
            if not kv.serving[shard]:
                # The client counts this fenced reply as a partial
                # commit; counting here too would double-book it.
                return _FENCED, 0.0
            core = kv.next_writer_core(shard)
            yield cfg.costs.writer_fixed_ns
            applied: List[int] = []
            for obj in ids:
                current = store.current_version(obj)
                if not is_locked(current) or owners.get(obj) != token:
                    # The lock died in a crash; re-sync restored the
                    # pre-transaction committed image.  Not applied —
                    # and, crucially, not replicated below either, or
                    # backups would run ahead with a write the primary
                    # never committed.
                    self.stats[shard].partial_commits += 1
                    continue
                committed = commit_version(current)
                data = stamped_payload(committed, cfg.payload_len)
                steps, _version = store.commit_steps(obj, data)
                for step in steps[:-1]:
                    block_ns = node.chip.write_block(core, *step)
                    yield max(block_ns, cfg.costs.writer_block_ns)
                # The last step is the header going even; ownership
                # ends in that same step, before the yield.
                block_ns = kv.unlock_object(shard, obj, core, committed)
                yield max(block_ns, cfg.costs.writer_block_ns)
                ws.primary_updates += 1
                applied.append(obj)
            for obj in applied:
                replica_payload = (
                    kv.epoch.to_bytes(8, "little")
                    + obj.to_bytes(8, "little")
                    + bytes(cfg.payload_len)
                )
                for backup in kv.placement(obj)[1:]:
                    kv.shard_rpc(shard).call(
                        kv.shards[backup].node_id,
                        "shard_replicate",
                        replica_payload,
                        timeout_ns=kv.rpc_timeout_ns,
                    )
            return _OK, 0.0

        return handler

    def _make_release_handler(self, shard: int):
        kv = self.kv

        def handler(payload: bytes):
            """Abort path: restore each pre-lock version.  The data
            blocks were never touched, so the old committed image
            simply becomes visible again.

            Each restore only lands if this attempt's owner token
            still holds the object *and* it carries exactly the
            version the lock published: if the shard crashed and
            re-synced in between (clearing the lock — and possibly
            catching up on the promotee's newer writes, or handing the
            lock to a new owner at the very same odd version), writing
            the old version back would regress the object or unlock
            someone else's critical section, so the stale restore is
            skipped instead."""
            costs = kv.cfg.costs
            store = kv.stores[shard]
            owners = kv.lock_holders[shard]
            token = int.from_bytes(payload[:8], "little")
            words = _decode_u64s(payload[8:])
            core = kv.next_writer_core(shard)
            latency = 0.0
            for i in range(0, len(words), 2):
                obj, restore = words[i], words[i + 1]
                if (
                    owners.get(obj) != token
                    or store.current_version(obj) != lock_version(restore)
                ):
                    continue
                block_ns = kv.unlock_object(shard, obj, core, restore)
                latency += max(block_ns, costs.writer_block_ns)
            yield latency
            return _OK, 0.0

        return handler


# ----------------------------------------------------------------------
# the client side
# ----------------------------------------------------------------------


class TxnSession:
    """One client's transaction endpoint.

    Owns a :class:`~repro.objstore.session.ReaderSession` (so read-set
    reads share the per-shard stats, audit, and retry machinery with
    plain lookups) and drives the commit protocol over the client
    node's RPC endpoint.  Create one per transactional process.
    """

    def __init__(self, manager: TxnManager, client_index: int):
        self.manager = manager
        self.kv = manager.kv
        self.client_index = client_index
        self.reader: ReaderSession = self.kv.reader_session(client_index)
        self._rpc = self.kv.client_rpc(client_index)

    # ------------------------------------------------------------------
    # read phase
    # ------------------------------------------------------------------
    def read(self, key: str, t_end: float):
        """One read-set read of ``key`` from its *current* primary (a
        simulation generator) — the promoted backup after a crash.
        Returns a :class:`TxnRead` on a consumed read or ``None`` when
        ``t_end`` arrived first.  The observed payload is audited
        against ground truth into the shard's txn stats."""
        kv = self.kv
        sim = kv.cluster.sim
        idx = kv.key_index(key)
        while True:
            shard = kv.current_primary(idx)
            if shard is None:
                # Total outage for this key: poll the view.
                if sim.now >= t_end:
                    return None
                yield min(OUTAGE_POLL_NS, t_end - sim.now)
                continue
            self.reader.stats[shard].reads_routed += 1
            # Bound the attempt when failover is active so a crash
            # mid-read re-routes to the promoted view promptly.
            deadline = min(t_end, sim.now + kv.reroute_check_ns)
            ok = yield from self.reader.attempt(shard, idx, deadline)
            if ok:
                break
            if sim.now >= t_end:
                return None
        version, data = self.reader.last_read(shard)
        entry = TxnRead(key=key, shard=shard, version=version, data=data)
        if entry.torn:
            self.manager.stats[shard].torn_reads_observed += 1
        return entry

    # ------------------------------------------------------------------
    # one optimistic attempt
    # ------------------------------------------------------------------
    def attempt(
        self,
        read_keys: Sequence[str],
        write_keys: Sequence[str],
        t_end: float,
    ):
        """One read-validate-commit attempt (a simulation generator).

        Returns ``(status, reads)`` where status is ``"committed"``,
        ``"abort_lock"``, ``"abort_validate"``, ``"abort_crash"``, or
        ``"timeout"``.  Write-set keys are always read first
        (read-modify-write), so the pre-lock versions returned by
        ``txn_lock`` validate them; remaining read-only keys go through
        ``txn_validate``.

        ``abort_crash`` is the failover-injected reason: a shard
        crashed under one of the attempt's RPCs (typed error) or fenced
        it after a view change.  Acquired locks are rolled back on live
        shards; locks on the crashed shard die with it (its re-sync
        restores committed images).
        """
        kv = self.kv
        write_set = set(write_keys)
        for key in write_set | set(read_keys):
            kv.key_index(key)  # raises on unknown keys

        # -- read phase (deterministic key order) ----------------------
        reads: Dict[str, TxnRead] = {}
        for key in sorted(write_set | set(read_keys), key=kv.key_index):
            entry = yield from self.read(key, t_end)
            if entry is None:
                return "timeout", reads

            reads[key] = entry

        # -- lock phase: current primaries in ascending shard order ----
        epoch = kv.epoch
        token = next(self.manager._tokens)
        by_shard: Dict[int, List[str]] = {}
        for key in sorted(write_set, key=kv.key_index):
            shard = kv.current_primary(kv.key_index(key))
            if shard is None:  # total outage for this key
                self.manager.stats[kv.primary_of(key)].crash_aborts += 1
                return "abort_crash", reads
            by_shard.setdefault(shard, []).append(key)
        locked: List[Tuple[int, List[int], List[int]]] = []
        for shard in sorted(by_shard):
            keys = by_shard[shard]
            ids = [kv.key_index(k) for k in keys]
            stats = self.manager.stats[shard]
            stats.lock_rpcs += 1
            reply = yield self._rpc.call(
                kv.shards[shard].node_id,
                "txn_lock",
                epoch.to_bytes(8, "little")
                + token.to_bytes(8, "little")
                + _encode_u64s(ids),
                timeout_ns=kv.rpc_timeout_ns,
            )
            if isinstance(reply, ShardCrashedError) or reply == _FENCED:
                stats.crash_aborts += 1
                yield from self._release(locked, token)
                return "abort_crash", reads
            if not reply.startswith(_OK):
                stats.lock_conflicts += 1
                yield from self._release(locked, token)
                return "abort_lock", reads
            pre_versions = _decode_u64s(reply[1:])
            locked.append((shard, ids, pre_versions))
            # Write-set validation rides on the lock reply: the version
            # the lock found must be the version the read observed.
            for key, pre in zip(keys, pre_versions):
                if pre != reads[key].version:
                    stats.validation_aborts += 1
                    yield from self._release(locked, token)
                    return "abort_validate", reads

        # -- validate phase: read-only keys ----------------------------
        ro_by_shard: Dict[int, List[str]] = {}
        for key in sorted(set(read_keys) - write_set, key=kv.key_index):
            shard = kv.current_primary(kv.key_index(key))
            if shard is None:
                self.manager.stats[kv.primary_of(key)].crash_aborts += 1
                yield from self._release(locked, token)
                return "abort_crash", reads
            ro_by_shard.setdefault(shard, []).append(key)
        for shard in sorted(ro_by_shard):
            pairs: List[int] = []
            for key in ro_by_shard[shard]:
                pairs.extend((kv.key_index(key), reads[key].version))
            stats = self.manager.stats[shard]
            stats.validate_rpcs += 1
            reply = yield self._rpc.call(
                kv.shards[shard].node_id,
                "txn_validate",
                epoch.to_bytes(8, "little") + _encode_u64s(pairs),
                timeout_ns=kv.rpc_timeout_ns,
            )
            if isinstance(reply, ShardCrashedError) or reply == _FENCED:
                stats.crash_aborts += 1
                yield from self._release(locked, token)
                return "abort_crash", reads
            if reply != _OK:
                stats.validation_aborts += 1
                yield from self._release(locked, token)
                return "abort_validate", reads

        # -- apply phase ----------------------------------------------
        for shard, ids, _pre in locked:
            self.manager.stats[shard].commit_rpcs += 1
            reply = yield self._rpc.call(
                kv.shards[shard].node_id,
                "txn_commit",
                token.to_bytes(8, "little") + _encode_u64s(ids),
                timeout_ns=kv.rpc_timeout_ns,
            )
            if isinstance(reply, ShardCrashedError) or reply == _FENCED:
                # The shard died (or rejoined non-serving) between lock
                # and apply: its objects keep the pre-transaction image
                # on the promoted backup, the rest of the write set
                # applies.  Counted per skipped object (matching the
                # handler-side unit), not rolled back (see
                # TxnStats.partial_commits).
                self.manager.stats[shard].partial_commits += len(ids)
        for shard in self._touched_shards(reads):
            self.manager.stats[shard].commits += 1
        return "committed", reads

    def _release(self, locked, token: int):
        """Roll back every acquired lock (abort path).  A crashed
        shard's typed failure is ignored: its locks die with it and
        re-sync restores committed (even-version) images.  A
        *partition* refusal is different — the shard is alive and its
        lock table intact, so abandoning the release would leak the
        lock forever (every writer of the object would spin on it).
        The release polls until the link heals: the lock stays held for
        the window (writers back off, which is what a real partition
        does) and clears the moment the conversation can flow again."""
        sim = self.kv.cluster.sim
        for shard, ids, pre_versions in locked:
            pairs: List[int] = []
            for obj, pre in zip(ids, pre_versions):
                pairs.extend((obj, pre))
            payload = token.to_bytes(8, "little") + _encode_u64s(pairs)
            stats = self.manager.stats[shard]
            stats.release_rpcs += 1
            while True:
                reply = yield self._rpc.call(
                    self.kv.shards[shard].node_id,
                    "txn_release",
                    payload,
                    timeout_ns=self.kv.rpc_timeout_ns,
                )
                if not isinstance(reply, LinkPartitionedError):
                    break
                stats.release_retries += 1
                yield RELEASE_RETRY_NS

    @staticmethod
    def _touched_shards(reads: Dict[str, TxnRead]):
        return sorted({entry.shard for entry in reads.values()})

    # ------------------------------------------------------------------
    # retry loop
    # ------------------------------------------------------------------
    def run(
        self,
        read_keys: Sequence[str],
        write_keys: Sequence[str] = (),
        t_end: float = float("inf"),
        max_attempts: Optional[int] = None,
    ):
        """Run one transaction to commit, retrying aborted attempts
        (§7.2's retry-same-object policy, lifted to transactions), as a
        simulation generator returning a :class:`TxnOutcome`."""
        if max_attempts is not None and max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1: {max_attempts}")
        sim = self.kv.cluster.sim
        outcome = TxnOutcome(committed=False)
        while True:
            outcome.attempts += 1
            status, reads = yield from self.attempt(read_keys, write_keys, t_end)
            outcome.reads = reads
            if status == "committed":
                outcome.committed = True
                return outcome
            if status == "abort_lock":
                outcome.lock_aborts += 1
            elif status == "abort_validate":
                outcome.validation_aborts += 1
            elif status == "abort_crash":
                outcome.crash_aborts += 1
            else:  # timeout
                outcome.timed_out = True
                return outcome
            if max_attempts is not None and outcome.attempts >= max_attempts:
                return outcome
            if sim.now >= t_end:
                outcome.timed_out = True
                return outcome
            for shard in self._touched_shards(reads):
                self.manager.stats[shard].retries += 1
