"""Sharded, replicated FaRM-style KV service over soNUMA.

The paper motivates SABRes with rack-scale in-memory services (FaRM,
§1-§2) whose data is *partitioned across the rack*: every node owns a
shard and serves one-sided reads for it.  This module scales the
two-node :mod:`repro.objstore.farm` deployment out to N storage shards
plus a set of client nodes on one lossless fabric:

* **Placement** is consistent hashing (:class:`~repro.objstore.ring.
  HashRing`) with virtual nodes, so shards receive near-equal key
  ranges and routing is a pure function of ``(seed, key)`` —
  deterministic run to run.
* **Replication** is primary/backup: each key lives on ``replication``
  distinct shards (the ring walk order).  Writes ship to the primary
  over an RPC (§2.1), run the odd/even version protocol through the
  owner's *timed* memory hierarchy — so destination-side SABRe
  hardware snoops them exactly as it snoops local writers — and are
  replicated to the backups asynchronously.
* **Reads** go through the pluggable :class:`~repro.objstore.
  protocols.ReadProtocol` strategies unchanged: every Table 1
  mechanism (``remote_read``, ``sabre``, ``percl_versions``,
  ``checksum``, ``drtm_lock``) works against the sharded store.  A
  :class:`~repro.objstore.session.ReaderSession` binds one client
  reader to every shard and optionally *falls back* to a backup
  replica when the primary keeps failing the atomicity check (e.g. a
  hot object under heavy writes).
* **Stats** are tracked per shard: routed load, retries/aborts,
  fallback reads, replica writes, and the ground-truth torn-read audit
  (``undetected_violations``) every consumed read performs.

The module is workload-agnostic and the one owner of the *service
view* (placement, membership, serving flags, epoch, lock owners):
:mod:`~repro.faults.failover`, :mod:`~repro.objstore.reshard` and
:mod:`~repro.objstore.txn` change it only through :class:`ShardedKV`.
Timed loops live in the workload layer (:mod:`repro.workloads.ycsb`).
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Tuple

from repro.atomicity.locks import commit_version, is_locked, lock_version
from repro.common.config import ClusterConfig, from_fields
from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import ConfigError, ShardCrashedError
from repro.common.rng import make_rng
from repro.objstore.layout import stamped_payload
from repro.objstore.protocols import get_protocol
from repro.objstore.ring import HashRing
from repro.objstore.session import (
    OUTAGE_POLL_NS,
    ReaderSession,
    ShardStats,
)
from repro.objstore.store import ObjectStore
from repro.sim.stats import Samples
from repro.sonuma.node import Cluster
from repro.sonuma.rpc import RpcEndpoint


#: Re-route bound the failover and reshard managers arm: the longest
#: one read attempt may run, so a crash mid-attempt re-routes to the
#: promoted view promptly instead of hammering a dead shard until the
#: op deadline.
REROUTE_CHECK_NS = 2_000.0

#: Client-side RPC watchdog the failover and reshard managers arm (the
#: lease timeout a FaRM client would arm).  Crash notifications fail
#: pending calls first, so the watchdog almost never fires — but it is
#: what bounds the damage if a reply goes missing some other way, and
#: its cancel-on-reply pattern is exactly the load the simulator's heap
#: compaction exists for.
RPC_TIMEOUT_NS = 60_000.0

#: Spin-wait between lock re-checks by a writer that found the object's
#: version odd (same pacing as the microbenchmark's ``TimedWriter``).
LOCK_SPIN_NS = 25.0

#: How many times a primary ``shard_put`` handler re-checks a held lock
#: before giving up and replying "busy" (the client re-issues the RPC).
#: A bounded spin keeps the worker pool live-lock free now that
#: transactions (:mod:`repro.objstore.txn`) can hold an object's lock
#: across *multiple* RPC round trips: an unbounded spin could pin every
#: worker of a shard while the lock holder's own commit RPC sat queued
#: behind them.  Backup replication keeps the unbounded spin — backups
#: are only ever locked by other (bounded) replica updates.
PUT_SPIN_LIMIT = 64

#: Client-side backoff before re-issuing a busy-bounced put: base
#: doubles per consecutive bounce up to the cap, with a deterministic
#: jitter factor so colliding writers decorrelate.  Without it, a
#: transaction holding a hot lock across RPC round trips can starve
#: plain puts: every bounced client re-issued instantly, keeping the
#: shard's worker pool saturated with retries.
PUT_BACKOFF_BASE_NS = 50.0
PUT_BACKOFF_CAP_NS = 1_600.0

#: Worker threads serving each shard's (and each client's) RPC endpoint.
RPC_WORKERS = 2

#: RPC reply tags shared by the put path and the transaction layer.
REPLY_OK = b"\x01"
REPLY_BUSY = b"\x00"
#: The receiver refused because the request's epoch is stale or the
#: receiver no longer (or does not yet) own the object -- the fencing
#: that keeps a demoted primary from serving after a promotion.
REPLY_FENCED = b"\x02"


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass
class ShardedConfig:
    """One sharded-service deployment.

    ``n_clients = 0`` means one client node per shard (the scale-out
    default, so adding shards also adds load generators).  ``object_
    size`` includes the 8 B header, as everywhere else in the repo.
    """

    n_shards: int = 4
    n_clients: int = 0
    replication: int = 2
    mechanism: str = "sabre"
    object_size: int = 1024
    n_objects: int = 512
    version_bits: int = 16
    vnodes: int = 64
    seed: int = 1
    #: Shard slots provisioned in the cluster beyond the ``n_shards``
    #: initial ring members (0 = no headroom).  Spare slots get nodes,
    #: stores, and registered RPC endpoints at construction but join
    #: the ring only when a :class:`~repro.objstore.reshard.
    #: ReshardManager` activates them — the capacity a live scale-out
    #: grows into.
    max_shards: int = 0
    #: Time a read gives the primary before falling back to a backup
    #: replica (0 disables fallback; reads then retry the primary only).
    fallback_after_ns: float = 0.0
    costs: SoftwareCosts = field(default_factory=lambda: DEFAULT_COSTS)

    @classmethod
    def of(cls, source: object, **derived) -> "ShardedConfig":
        """The deployment ``source`` describes — a workload config or the
        serve settings: each field of this class that ``source`` has, by
        name (:func:`~repro.common.config.from_fields`), then what the
        caller derives (an elastic run's ``max_shards``)."""
        return from_fields(cls, vars(source), **derived)

    def validate(self) -> None:
        get_protocol(self.mechanism)  # raises ConfigError when unknown
        if self.n_shards < 1:
            raise ConfigError("need at least one shard")
        if self.n_clients < 0:
            raise ConfigError("client count cannot be negative")
        if not 1 <= self.replication <= self.n_shards:
            raise ConfigError(
                f"replication {self.replication} needs 1..{self.n_shards} shards"
            )
        if self.object_size < 16:
            raise ConfigError("object_size must cover the header plus data")
        if self.n_objects < 1:
            raise ConfigError("need at least one object")
        if self.vnodes < 1:
            raise ConfigError("need at least one virtual node per shard")
        if self.max_shards and self.max_shards < self.n_shards:
            raise ConfigError(
                f"max_shards {self.max_shards} cannot be below n_shards "
                f"{self.n_shards}"
            )

    @property
    def clients(self) -> int:
        return self.n_clients or self.n_shards

    @property
    def provisioned_shards(self) -> int:
        """Shard slots the cluster is built with (members + spares)."""
        return max(self.n_shards, self.max_shards)

    @property
    def payload_len(self) -> int:
        return self.object_size - 8

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(nodes=self.provisioned_shards + self.clients)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


@dataclass
class ShardWriteStats:
    """Write-side load counters for one shard (kept on the service —
    increments are atomic between simulation yields)."""

    #: Put RPCs issued against this shard as its primary, including
    #: re-issues after a busy bounce and redirects after a promotion.
    writes_routed: int = 0
    primary_updates: int = 0
    replica_updates: int = 0
    lock_spins: int = 0
    #: Primary puts bounced after ``PUT_SPIN_LIMIT`` lock re-checks
    #: (the client retries; see the spin-bound rationale above).
    busy_rejects: int = 0
    #: Client-side re-issues of busy-bounced puts, attributed to the
    #: shard that bounced — so ``busy_rejects == write_retries`` holds
    #: per shard even when later re-issues land on a promoted backup.
    write_retries: int = 0
    #: Requests refused because their epoch was stale or this shard no
    #: longer (or does not yet) own the object.
    fenced_rejects: int = 0
    #: Puts re-routed away from this shard after its crash was detected
    #: mid-call (the typed-error path; the put lands on the promotee).
    crash_redirects: int = 0
    #: Puts fenced off this shard because a migration or replica
    #: promotion moved the object's primary between issue and reply.
    #: Charged to the *fencing* shard (the stale owner), exactly once
    #: per re-route, so redirect counters pair with the re-issue that
    #: lands on the new owner and are never double-charged or orphaned
    #: when the key changes hands again mid-retry.
    reshard_redirects: int = 0


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------


class ShardedKV:
    """A rack-scale KV service: ``n_shards`` storage nodes, each owning
    one :class:`ObjectStore` shard, and a set of client nodes issuing
    one-sided reads and RPC writes over the shared fabric."""

    def __init__(self, cfg: ShardedConfig):
        cfg.validate()
        self.cfg = cfg
        self.protocol_cls = get_protocol(cfg.mechanism)
        self.layout = self.protocol_cls.make_layout(cfg.version_bits)

        #: Shard slots built into the cluster: ring members first, then
        #: spare slots a live scale-out can activate.
        self.provisioned = cfg.provisioned_shards
        self.cluster = Cluster(cfg.cluster_config())
        self.shards = self.cluster.nodes[: self.provisioned]
        self.clients = self.cluster.nodes[self.provisioned :]
        self.ring = HashRing(range(cfg.n_shards), vnodes=cfg.vnodes, seed=cfg.seed)
        self.stores = [
            ObjectStore(node.phys, self.layout, name=f"shard{node.node_id}")
            for node in self.shards
        ]

        self._keys: Dict[str, int] = {}
        self._placement: List[Tuple[int, ...]] = []
        held: List[List[int]] = [[] for _ in self.stores]
        for idx in range(cfg.n_objects):
            key = self.key_name(idx)
            replicas = self.ring.replicas(key, cfg.replication)
            self._keys[key] = idx
            self._placement.append(replicas)
            for shard in replicas:
                held[shard].append(idx)
        payload = stamped_payload(0, cfg.payload_len)
        for store, ids in zip(self.stores, held):
            store.populate(ids, payload)

        self.write_stats = [ShardWriteStats() for _ in range(self.provisioned)]
        self.write_latency = Samples("sharded_write_ns")
        #: Each reader session's per-shard stats (not the session,
        #: which refers back to this service).
        self.session_stats: List[List[ShardStats]] = []
        self._wcore = [0] * self.provisioned
        self._put_seq = itertools.count()

        # -- the service view: assigned only through the operations below
        #: Configuration epoch: bumped on every crash/rejoin and every
        #: resharding step; stamped into write and lock RPCs, checked by
        #: every handler (fencing).
        self.epoch = 0
        #: Per-slot ring membership.  Spare slots are provisioned but
        #: not members until a scale-out activates them; a scale-in
        #: demotes a member back to a spare.
        self.members = [i < cfg.n_shards for i in range(self.provisioned)]
        #: Per-shard serving flag.  A crashed shard is not serving; a
        #: recovering shard stays non-serving until its re-sync ends.
        #: Spare (non-member) slots are not serving either — their
        #: handlers fence everything until activation.
        self.serving = [i < cfg.n_shards for i in range(self.provisioned)]
        #: Per-shard lock ownership: object id -> owner token of the
        #: transaction or migration currently holding it.  Bare odd/even
        #: versions are ABA-vulnerable across a crash + re-sync (the
        #: re-sync restores the pre-crash committed version, so the next
        #: locker republishes the identical odd value); commit/release
        #: verify the token so a straggler can never act on someone
        #: else's lock.  Written by ``lock_object``, ``unlock_object`` and
        #: ``resync_shard`` only; the rest read the ``lock_holders`` views.
        self._lock_owners: List[Dict[int, int]] = [{} for _ in self.shards]
        self.lock_holders = [MappingProxyType(o) for o in self._lock_owners]
        # -- two plain attributes: objstore.reshard is their only writer,
        #    the reader session their only reader ----------------------
        #: Object ids currently inside a migration's double-read
        #: window: readers walk *all* serving copies (old and new
        #: owners) for these even with fallback disabled, so the window
        #: never narrows a hot key down to a single mid-handoff copy.
        self.double_read: set = set()
        #: Promoted extra read replicas per hot object id (appended to
        #: the placement tail by the rebalance policy); lookups rotate
        #: deterministically over primary + promoted copies.
        self.hot_replicas: Dict[int, List[int]] = {}
        #: Per-object consumed-read counters — the load signal the
        #: hotspot detector samples (plain lookups only; transactional
        #: reads always need the primary and gain nothing from extra
        #: read replicas).
        self.key_reads = [0] * cfg.n_objects
        #: Upper bound on one read attempt's deadline so a crash
        #: mid-attempt re-routes promptly; ``inf`` (nothing armed)
        #: preserves the plain semantics.  Written only by
        #: :meth:`arm_watchdogs`.
        self.reroute_check_ns = math.inf
        #: Client-side watchdog for write/lock RPCs (None disables).
        #: Written only by :meth:`arm_watchdogs`.
        self.rpc_timeout_ns: Optional[float] = None

        self._shard_rpc = [
            RpcEndpoint(node, workers=RPC_WORKERS, costs=cfg.costs)
            for node in self.shards
        ]
        self._client_rpc = [
            RpcEndpoint(node, workers=RPC_WORKERS, costs=cfg.costs)
            for node in self.clients
        ]
        for shard, rpc in enumerate(self._shard_rpc):
            rpc.register("shard_put", partial(self._apply_update, shard, True))
            rpc.register("shard_replicate", partial(self._apply_update, shard, False))

    def close(self) -> None:
        """Close the rack this service built (``Cluster.close``)."""
        self.cluster.close()

    def arm_watchdogs(
        self, rpc_timeout_ns: float, reroute_check_ns: float = math.inf
    ) -> None:
        """The one place the service's failure timers are set.  The
        first RPC watchdog armed wins; the re-route bound is the
        tightest any caller asked for.  So the answer does not depend
        on which of the failover and reshard managers was built first,
        and a caller that arms a shorter watchdog before building them
        keeps it."""
        if rpc_timeout_ns <= 0 or reroute_check_ns <= 0:
            raise ConfigError(
                f"failure timers must be positive: rpc_timeout_ns="
                f"{rpc_timeout_ns}, reroute_check_ns={reroute_check_ns}"
            )
        if self.rpc_timeout_ns is None:
            self.rpc_timeout_ns = rpc_timeout_ns
        self.reroute_check_ns = min(self.reroute_check_ns, reroute_check_ns)

    # ------------------------------------------------------------------
    # key space and placement
    # ------------------------------------------------------------------
    @staticmethod
    def key_name(idx: int) -> str:
        return f"key-{idx}"

    def keys(self) -> List[str]:
        return list(self._keys)

    def key_index(self, key: str) -> int:
        try:
            return self._keys[key]
        except KeyError:
            raise ConfigError(f"unknown key {key!r}") from None

    def primary_of(self, key: str) -> int:
        return self._placement[self.key_index(key)][0]

    def replicas_of(self, key: str) -> Tuple[int, ...]:
        return self._placement[self.key_index(key)]

    # ------------------------------------------------------------------
    # the service view, by object index: failover, reshard and txn call
    # these and never assign placement, members, serving or the epoch
    # ------------------------------------------------------------------
    def placement(self, idx: int) -> Tuple[int, ...]:
        """The shards holding object ``idx``, primary first (serving or
        not; a migration's old owners and promoted extras on the tail)."""
        return self._placement[idx]

    def hosted_on(self, shard: int) -> List[int]:
        """The objects whose placement names ``shard``, ascending."""
        return [i for i, place in enumerate(self._placement) if shard in place]

    def current_primary(self, idx: int) -> Optional[int]:
        """The first *serving* replica of object ``idx`` (writes and
        try-locks go here), or ``None`` during a total outage."""
        for shard in self._placement[idx]:
            if self.serving[shard]:
                return shard
        return None

    def read_route(self, idx: int) -> Tuple[int, ...]:
        """The serving replicas of object ``idx`` in promotion order."""
        return tuple(s for s in self._placement[idx] if self.serving[s])

    def advance_epoch(self) -> None:
        """Fence every request stamped with the current epoch."""
        self.epoch += 1

    def flip(self, idx: int, holders: Iterable[int]) -> None:
        """Hand object ``idx`` to ``holders`` (primary first); old
        holders not among them stay on the tail, replicated-to and
        readable, until :meth:`collapse` or :meth:`drop_holders`.  A
        promoted extra joins as ``placement(idx) + (shard,)``."""
        holders = tuple(holders)
        self._placement[idx] = holders + tuple(
            s for s in self._placement[idx] if s not in holders
        )

    def collapse(self, idx: int) -> None:
        """Cut object ``idx``'s placement back to exactly the ring's
        replica list (the end of a migration's double-read grace)."""
        self._placement[idx] = self.ring.replicas(
            self.key_name(idx), self.cfg.replication
        )

    def drop_holders(self, idx: int, gone: Iterable[int]) -> None:
        """Drop ``gone`` (demoted extras past their grace) from object
        ``idx``'s placement; the epoch advances iff any was there."""
        pruned = tuple(s for s in self._placement[idx] if s not in gone)
        if pruned != self._placement[idx]:
            self._placement[idx] = pruned
            self.epoch += 1

    def mark_down(self, shard: int) -> int:
        """Take ``shard`` out of the view: stop routing to it, promote
        the next serving replica for every key it was primary of (the
        promotion is *permanent* — a recovered shard rejoins as a
        backup), and bump the epoch so stale requests are fenced.
        Returns how many keys changed primaries."""
        self.serving[shard] = False
        promoted = 0
        for idx in self.hosted_on(shard):
            place = self._placement[idx]
            promoted += place[0] == shard
            self._placement[idx] = tuple(s for s in place if s != shard) + (shard,)
        self.epoch += 1
        return promoted

    def mark_serving(self, shard: int) -> None:
        """Readmit a re-synced shard (as a backup: :meth:`mark_down`
        already demoted it) and bump the epoch for the view change."""
        self.serving[shard] = True
        self.epoch += 1

    def member_shards(self) -> List[int]:
        """The current ring members, ascending (spares excluded)."""
        return [s for s in range(self.provisioned) if self.members[s]]

    def all_members_serving(self) -> bool:
        """False while any ring *member* is crashed or re-syncing
        (spare slots are always non-serving and don't count)."""
        return all(self.serving[s] for s in self.member_shards())

    def activate_shard(self, shard: int) -> None:
        """Admit spare slot ``shard`` as a serving member and bump the
        epoch (the reshard manager grows the ring and migrates keys)."""
        if not 0 <= shard < self.provisioned:
            raise ConfigError(f"no provisioned shard slot {shard}")
        if self.members[shard]:
            raise ConfigError(f"shard {shard} is already a member")
        self.members[shard] = True
        self.serving[shard] = True
        self.epoch += 1

    def deactivate_shard(self, shard: int) -> None:
        """Demote ``shard`` back to a spare slot after a scale-in has
        drained it (no placement may still route to it)."""
        if not self.members[shard]:
            raise ConfigError(f"shard {shard} is not a member")
        hosted = self.hosted_on(shard)
        if hosted:
            raise ConfigError(
                f"shard {shard} still hosts object {hosted[0]}; migrate first"
            )
        self.members[shard] = False
        self.serving[shard] = False
        self.epoch += 1

    def resync_shard(self, shard: int) -> int:
        """Copy the current committed image of every object hosted on
        ``shard`` from that object's current primary (functional: the
        *time* of a re-sync is charged by the failover manager before
        this runs).  A copy caught mid-update on the primary is rounded
        down to its last committed version — by the repo-wide ground
        truth convention a committed image is fully determined by its
        version, so the synthesized bytes are exact.  Returns the
        number of objects re-synced."""
        store = self.stores[shard]
        # Locks (and therefore their owners) did not survive the crash.
        self._lock_owners[shard].clear()
        hosted = self.hosted_on(shard)
        for idx in hosted:
            src = self.current_primary(idx)
            if src is None or src == shard:
                # No peer to copy from (every other replica is down
                # too): self-heal from the local copy instead.  This
                # still clears any lock stranded by a handler that died
                # mid-update — rejoining with an odd version would
                # wedge the object forever.
                src = shard
            version = self.stores[src].current_version(idx)
            committed = version - 1 if is_locked(version) else version
            image = self.layout.pack(
                committed, stamped_payload(committed, self.cfg.payload_len)
            )
            store.phys.write(store.handle(idx).base_addr, image)
        return len(hosted)

    def _store_version(self, shard: int, obj: int, core: int, version: int) -> float:
        return self.shards[shard].chip.write_block(
            core,
            self.stores[shard].version_addr(obj),
            version.to_bytes(8, "little"),
        )

    def lock_object(
        self, shard: int, obj: int, core: int, version: int, token: int
    ) -> float:
        """Lock ``obj``'s copy on ``shard`` for ``token``: the header
        goes from even ``version`` (just read by the caller, no yield
        since) to odd through the timed chip, and the token is recorded
        in the same step.  Returns the store's latency to charge."""
        self._lock_owners[shard][obj] = token
        return self._store_version(shard, obj, core, lock_version(version))

    def unlock_object(self, shard: int, obj: int, core: int, version: int) -> float:
        """Publish even ``version`` and end the holder's ownership in
        the same step: whoever locks ``obj`` during the caller's next
        yield records its own token, which a later delete would destroy.
        The caller has checked ``lock_holders`` names its token."""
        del self._lock_owners[shard][obj]
        return self._store_version(shard, obj, core, version)

    # ------------------------------------------------------------------
    # endpoints, cores and reader sessions
    # ------------------------------------------------------------------
    def all_endpoints(self) -> List[RpcEndpoint]:
        """Every RPC endpoint in the deployment, shards then clients
        (deterministic order — the failover crash path iterates it)."""
        return [*self._shard_rpc, *self._client_rpc]

    def shard_rpc(self, shard: int) -> RpcEndpoint:
        """The RPC endpoint of storage shard ``shard`` (extra services,
        e.g. the transaction layer, register their handlers here)."""
        return self._shard_rpc[shard]

    def client_rpc(self, client_index: int) -> RpcEndpoint:
        """The RPC endpoint of client node ``client_index``."""
        return self._client_rpc[client_index]

    def next_writer_core(self, shard: int) -> int:
        """Round-robin core assignment for timed writes applied on a
        shard (shared by the put path and the transaction handlers, so
        writer load spreads over the chip either way)."""
        core = self._wcore[shard] % self.cluster.cfg.node.cores.count
        self._wcore[shard] += 1
        return core

    def reader_session(self, client_index: int) -> ReaderSession:
        session = ReaderSession(self, client_index)
        self.session_stats.append(session.stats)
        return session

    # ------------------------------------------------------------------
    # write path: RPC to the primary, timed local update, async
    # replication to the backups (§2.1's write shipping, scaled out)
    # ------------------------------------------------------------------
    def put(self, client_index: int, key: str, t_end: float = float("inf")):
        """Issue a write from a client node; returns an event that
        triggers with the serving primary's ack — or with ``None`` if
        ``t_end`` arrives while *no* replica of the key is serving (a
        permanent total outage would otherwise spin the outage poll,
        and the simulation, forever).

        The put survives three failure modes, all invisible to the
        caller beyond latency; callers still observe exactly one acked
        write:

        * **busy** — the object's lock stayed held past
          ``PUT_SPIN_LIMIT`` re-checks (e.g. a transaction commit in
          flight).  The client backs off with deterministic jittered
          exponential delay before re-issuing, so txn-heavy mixes
          cannot starve plain puts by keeping the worker pool saturated
          with instant retries.  ``write_retries`` is charged to the
          shard that bounced, pairing with its ``busy_rejects`` even
          when the re-issue lands elsewhere after a promotion.
        * **crashed** — the RPC failed with a typed
          :class:`~repro.common.errors.ShardCrashedError`; the client
          redirects to the promoted backup.
        * **fenced** — the receiver refused a stale epoch or ownership;
          the client refreshes its view and re-issues.
        """
        idx = self.key_index(key)
        sim = self.cluster.sim
        put_seq = next(self._put_seq)
        body = idx.to_bytes(8, "little") + bytes(self.cfg.payload_len)

        def retrying_put():
            bounces = 0
            backoff_rng = None  # built on the first bounce only
            while True:
                primary = self.current_primary(idx)
                if primary is None:
                    # Total outage: every replica is down.  Poll the
                    # view until a shard rejoins or the deadline hits.
                    if sim.now >= t_end:
                        return None
                    yield min(OUTAGE_POLL_NS, t_end - sim.now)
                    continue
                ws = self.write_stats[primary]
                ws.writes_routed += 1
                reply = yield self._client_rpc[client_index].call(
                    self.shards[primary].node_id,
                    "shard_put",
                    self.epoch.to_bytes(8, "little") + body,
                    timeout_ns=self.rpc_timeout_ns,
                )
                if isinstance(reply, ShardCrashedError):
                    ws.crash_redirects += 1
                    if sim.now >= t_end:
                        return None
                    continue
                if reply == REPLY_OK:
                    return reply
                if reply == REPLY_FENCED:
                    # The handler counted the fence; if the fence was a
                    # migration/promotion moving the primary out from
                    # under us, charge the redirect to the stale owner.
                    # Deadline check first: a put redirected mid-
                    # migration carries its *remaining* budget — a
                    # permanently-migrating key must not spin forever.
                    if self.current_primary(idx) != primary:
                        ws.reshard_redirects += 1
                    if sim.now >= t_end:
                        return None
                    continue  # view re-read above
                ws.write_retries += 1
                bounces += 1
                if sim.now >= t_end:
                    # Busy-bounce backstop: past the deadline a put must
                    # not keep hammering a lock it may never win (e.g.
                    # one held across a partition window) — the caller
                    # observes the same ``None`` a total outage yields.
                    return None
                if backoff_rng is None:
                    backoff_rng = make_rng(self.cfg.seed, "put-backoff", put_seq)
                # Exponent clamped: past the cap more doubling only
                # risks float overflow on pathologically long waits.
                backoff = min(
                    PUT_BACKOFF_CAP_NS,
                    PUT_BACKOFF_BASE_NS * (2.0 ** min(bounces - 1, 16)),
                )
                yield backoff * backoff_rng.uniform(0.5, 1.5)

        return self.cluster.sim.process(retrying_put())

    def _apply_update(self, shard: int, replicate: bool, payload: bytes):
        """Owner-side update under the odd/even version protocol.

        The new image goes through the shard's *timed* chip memory
        system block by block (lock, data, commit), so coherence
        invalidations reach any in-flight SABRe exactly as a local
        writer's would — the property the safety tests pin down.

        Every update RPC carries the issuer's epoch (first 8 bytes) and
        is fenced: a primary put is refused unless the epoch is current
        *and* this shard is the object's serving primary, so a demoted
        or not-yet-re-synced shard can never commit writes the promoted
        view does not know about.  Replica updates check the epoch only
        (ownership of a backup copy is implied by the sender being the
        primary of that epoch).
        """
        cfg = self.cfg
        store = self.stores[shard]
        ws = self.write_stats[shard]
        epoch = int.from_bytes(payload[:8], "little")
        obj_id = int.from_bytes(payload[8:16], "little")

        # Both paths are fenced while the shard is not serving: a
        # re-syncing shard must not interleave handler block writes
        # with the re-sync's image copy (the one writer that bypasses
        # the odd/even protocol), or it could leave a mixed-version
        # image at rest and serve it after a later promotion.  Nothing
        # is lost: an update fenced here was already applied on the
        # primary, so the re-sync copy carries it.
        #
        # Only the *primary* path additionally checks the epoch and
        # ownership.  Replica updates deliberately skip the epoch
        # check: demotion only ever happens through a crash (and a
        # crashed node cannot send), so an epoch-stale replica update
        # is always a legitimate in-flight replication that raced an
        # unrelated view change — fencing it would silently strand the
        # backup behind an acked write.
        if not self.serving[shard] or (
            replicate
            and (epoch != self.epoch or self.current_primary(obj_id) != shard)
        ):
            ws.fenced_rejects += 1
            return REPLY_FENCED, cfg.costs.writer_block_ns

        # Version polls resolve the object's header address once and
        # read it directly: the spin loop re-checks every LOCK_SPIN_NS
        # and pays no per-poll handle lookup.
        vaddr = store.version_addr(obj_id)
        read_u64 = store.phys.read_u64
        spins = 0
        while is_locked(read_u64(vaddr)):
            if replicate and spins >= PUT_SPIN_LIMIT:
                # Primary path only: give the worker back so whoever
                # holds the lock can get its own RPC served (the client
                # re-issues).  Replica updates never bounce — backups
                # are only locked by other bounded replica updates.
                ws.busy_rejects += 1
                return REPLY_BUSY, 0.0
            spins += 1
            ws.lock_spins += 1
            yield LOCK_SPIN_NS

        # Same odd/even helpers the update plan uses internally, so the
        # payload stamp can never diverge from the header version.
        committed = commit_version(lock_version(read_u64(vaddr)))
        data = stamped_payload(committed, cfg.payload_len)
        steps, _version = store.update_steps(obj_id, data)
        core = self.next_writer_core(shard)

        # The lock step is applied before the first yield: between the
        # lock check above and this store no other process can run, so
        # two concurrent writers cannot both see an even version.
        # Each per-block delay is an interleaving point where readers
        # can observe a partial image.
        block_floor = cfg.costs.writer_block_ns
        chip = self.shards[shard].chip
        addr, chunk = steps[0]
        latency = chip.write_block(core, addr, chunk)
        yield max(latency, block_floor)
        yield cfg.costs.writer_fixed_ns
        for addr, chunk in steps[1:]:
            latency = chip.write_block(core, addr, chunk)
            yield max(latency, block_floor)

        if replicate:
            ws.primary_updates += 1
            for backup in self._placement[obj_id][1:]:
                # Asynchronous primary/backup replication: the ack does
                # not wait for the backups (and the RPC worker pools
                # therefore cannot deadlock on each other).  The epoch
                # is restamped: the view may have changed while this
                # handler held the chip.  A dead backup fails the call
                # fast; nobody waits on the completion.
                self._shard_rpc[shard].call(
                    self.shards[backup].node_id,
                    "shard_replicate",
                    self.epoch.to_bytes(8, "little") + payload[8:],
                    timeout_ns=self.rpc_timeout_ns,
                )
        else:
            ws.replica_updates += 1
        return REPLY_OK, 0.0

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def merged_shard_stats(self) -> List[ShardStats]:
        """Per-shard read stats folded across every reader session."""
        merged = [ShardStats() for _ in range(self.provisioned)]
        for per_shard in self.session_stats:
            for shard, stats in enumerate(per_shard):
                merged[shard].merge(stats)
        return merged

    def all_reader_stats(self) -> List[ShardStats]:
        """Every session's per-shard stats (e.g. for meter windows)."""
        return [s for per_shard in self.session_stats for s in per_shard]

    def shard_load(self) -> List[Dict[str, float]]:
        """Per-shard load/conflict table: one row per shard combining
        read routing, conflict, audit, and write/replication counters."""
        return [
            {
                "shard": shard,
                "objects": len(self.stores[shard]),
                "reads_routed": stats.reads_routed,
                "fallback_attempts": stats.fallback_attempts,
                "fallback_reads": stats.fallback_reads,
                "retries": stats.retries,
                "sabre_aborts": stats.sabre_aborts,
                "software_conflicts": stats.software_conflicts,
                "undetected_violations": stats.undetected_violations,
                **vars(self.write_stats[shard]),
                "serving": int(self.serving[shard]),
                "member": int(self.members[shard]),
            }
            for shard, stats in enumerate(self.merged_shard_stats())
        ]
