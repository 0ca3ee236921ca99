"""The client read path of the sharded store: one reader's per-shard
protocols, its private stats, and the lookup walk.

A :class:`ReaderSession` only *reads* the service view
(:class:`~repro.objstore.sharded.ShardedKV` owns it): the route, the
epoch, the double-read and hot-replica marks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.objstore.protocols import ReadProtocol
from repro.sim.stats import ReadStats

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.objstore.sharded import ShardedKV

#: How long a client waits before re-checking the view when *no*
#: replica of a key is serving (total outage, e.g. replication=1 and
#: the only copy crashed).
OUTAGE_POLL_NS = 500.0


class ShardStats(ReadStats):
    """Read-side stats for one shard as seen by one reader session:
    what the protocol records, plus routing/fallback load counters.
    Sessions keep private instances (a reader's counters are its own
    whatever interleaves between its yields); :meth:`merge` folds them
    together.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reads_routed = 0
        #: Attempts *issued* against this shard as a non-first replica
        #: (the walk reached it); compare with ``fallback_reads``, which
        #: counts only the attempts that actually consumed a read — the
        #: split is what makes a deadline expiring mid-attempt visible
        #: instead of silently inflating the fallback-success count.
        self.fallback_attempts = 0
        self.fallback_reads = 0

    def merge(self, other: "ShardStats") -> None:
        self.op_latency.extend(other.op_latency.values)
        self.transfer_latency.extend(other.transfer_latency.values)
        self.meter.absorb(other.meter)
        self.sabre_aborts += other.sabre_aborts
        self.software_conflicts += other.software_conflicts
        self.retries += other.retries
        self.undetected_violations += other.undetected_violations
        self.reads_routed += other.reads_routed
        self.fallback_attempts += other.fallback_attempts
        self.fallback_reads += other.fallback_reads


class ReaderSession:
    """One client reader: a protocol instance and private stats per
    shard, plus a reusable landing buffer.

    Create one session per reader process: the landing buffer, the
    protocols' last-read observation and ``served_by`` belong to one
    read at a time."""

    def __init__(self, kv: "ShardedKV", client_index: int):
        if not 0 <= client_index < len(kv.clients):
            raise ConfigError(f"no client node {client_index}")
        self.kv = kv
        self.client_index = client_index
        node = kv.clients[client_index]
        self._wire = kv.layout.wire_size(kv.cfg.payload_len)
        self._buf = node.alloc_buffer(self._wire)
        self.stats: List[ShardStats] = [
            ShardStats() for _ in range(kv.provisioned)
        ]
        self._protocols: List[ReadProtocol] = [
            kv.protocol_cls(
                sim=kv.cluster.sim,
                src=node,
                dst=kv.shards[shard],
                store=kv.stores[shard],
                payload_len=kv.cfg.payload_len,
                costs=kv.cfg.costs,
                stats=self.stats[shard],
            )
            for shard in range(kv.provisioned)
        ]
        # Round-robin cursor over a hot key's promoted replica set
        # (private per session, so rotation stays deterministic).
        self._hot_rr = 0
        #: The shard whose copy the most recent consumed read came from
        #: (``None`` until the session has consumed one).
        self.served_by: Optional[int] = None

    def attempt(self, shard: int, idx: int, deadline: float):
        """One protocol read of object ``idx``'s copy on ``shard`` (a
        simulation generator).  Returns ``True`` iff a read was
        consumed; ``served_by`` then names ``shard`` and the observation
        is available through :meth:`last_read`.  Every consumed read —
        primary or fallback — goes through the same protocol instance,
        so retry bookkeeping, latency/meter recording, and the
        ground-truth torn-read audit land in this session's per-shard
        stats identically."""
        handle = self.kv.stores[shard].handle(idx)
        consumed = yield from self._protocols[shard].read_once(
            handle, self._buf, self._wire, deadline
        )
        if consumed:
            self.kv.key_reads[idx] += 1
            self.served_by = shard
        return consumed

    def last_read(self, shard: int) -> Tuple[Optional[int], Optional[bytes]]:
        """The ``(version, payload)`` observation of the most recent
        consumed read against ``shard`` (the read-set entry a
        transaction records)."""
        protocol = self._protocols[shard]
        return protocol.last_version, protocol.last_data

    def lookup(self, key: str, t_end: float):
        """One atomic lookup of ``key`` as a simulation generator.

        Routes to the current primary (the promoted backup after a
        crash); with fallback enabled, gives the primary
        ``fallback_after_ns`` of retries, then walks the serving backup
        replicas (each getting the same grace period, the last one the
        full remaining time).  Returns ``True`` on a consumed read
        (``served_by`` says which shard's copy it was), ``False`` when
        ``t_end`` arrived first.

        Accounting contract (pinned by the fallback regression tests):
        ``reads_routed``/``fallback_attempts`` count attempts *issued*
        per shard; ``fallback_reads`` counts only the fallback attempt
        that actually *consumed* a read; latency samples and the
        torn-read audit land exactly once, on the consuming shard —
        a deadline expiring mid-attempt leaves retries behind but never
        a phantom fallback read or a double-counted audit.

        With a failover manager attached (finite ``reroute_check_ns``),
        every attempt's deadline is additionally bounded so a crash
        mid-attempt re-routes to the promoted view instead of spinning
        against a dead shard until ``t_end``.
        """
        kv = self.kv
        sim = kv.cluster.sim
        idx = kv.key_index(key)
        fallback_ns = kv.cfg.fallback_after_ns
        reroute_ns = kv.reroute_check_ns
        while sim.now < t_end:
            route = kv.read_route(idx)
            if not route:
                # Total outage for this key: every replica is down.
                # Wait out a slice of it (bounded by the deadline).
                yield min(OUTAGE_POLL_NS, t_end - sim.now)
                continue
            # During a migration's double-read window every reader must
            # consult both owners, even with fallback disabled: the walk
            # covers old and new placement so a read is never served a
            # half-migrated image without the protocol's detection pass.
            order = (
                route
                if fallback_ns > 0 or idx in kv.double_read
                else route[:1]
            )
            promoted = kv.hot_replicas.get(idx)
            if promoted:
                # Hot key: rotate the first attempt across the primary
                # and its promoted read replicas (deterministic per
                # session; losers keep their walk position).
                cands = [route[0]] + [
                    s for s in promoted if s in route and s != route[0]
                ]
                if len(cands) > 1:
                    head = cands[self._hot_rr % len(cands)]
                    self._hot_rr += 1
                    if head != order[0]:
                        order = (head,) + tuple(
                            s for s in order if s != head
                        )
            epoch = kv.epoch
            for attempt, shard in enumerate(order):
                stats = self.stats[shard]
                stats.reads_routed += 1
                if attempt > 0:
                    stats.fallback_attempts += 1
                # Non-final attempts get a grace slice; with fallback
                # disabled (double-read walk) the reroute bound serves
                # as the slice so earlier owners still yield the floor.
                grace = fallback_ns if fallback_ns > 0 else reroute_ns
                deadline = (
                    t_end
                    if attempt == len(order) - 1
                    else min(t_end, sim.now + grace)
                )
                deadline = min(deadline, sim.now + reroute_ns)
                ok = yield from self.attempt(shard, idx, deadline)
                if ok:
                    if attempt > 0:
                        stats.fallback_reads += 1
                    return True
                if sim.now >= t_end:
                    return False
                if kv.epoch != epoch:
                    # View changed mid-walk: recompute the route.
                    break
            # Walk exhausted before t_end (only possible when reroute
            # bounding is active): loop re-reads the current view.
        return False

