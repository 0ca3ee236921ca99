"""Live resharding and workload-aware placement for the sharded store.

ROADMAP item 4's elastic half: the deployment's topology is no longer
frozen at construction.  A :class:`ReshardManager` — the planned-change
sibling of :class:`~repro.faults.failover.FailoverManager`, sharing
its epoch fencing — executes scale-out/scale-in under load, and a small
rebalance policy loop promotes extra read replicas for hot keys.

**Scale-out protocol** (``scale_out``), per added shard:

1. *Activate* a provisioned spare slot (epoch bump).  Nothing routes to
   it yet — the ring has not grown — so activation is invisible to
   clients beyond the fence.
2. Grow the ring incrementally (:meth:`HashRing.add_shard`), which
   reports the exact moved arcs as :class:`RangeDelta` entries.  Only
   keys on those arcs (plus keys gaining the new shard as a backup)
   migrate; everything else never notices.
3. *Per-vnode handoff*: moved keys are batched by the vnode whose arc
   they sit on and migrated batch by batch — a fixed handshake charge,
   then per-key migration (below), then an epoch bump that redirects
   writers of the batch to the new owner through the existing
   busy/fenced retry path with their *remaining* deadline budget.
4. *Drain*, then prune: after :data:`DRAIN_NS` of double-read grace the
   migrated keys' placements collapse to exactly the fresh-ring replica
   lists and the double-read marks drop.  A finished migration is
   placement-identical to a fresh deployment at the new shard count.

**Per-key migration** (the heart of the invariant): the key's current
primary is *locked* (odd version, owner-token guarded, applied before
the first yield — atomic against racing writers and commit handlers),
the key enters its **double-read window** (readers walk old and new
owners even with fallback disabled, so a detecting protocol can always
find a committed copy and the torn-read audit stays at zero mid-
migration), the committed image is copied to each new holder through
the *destination's timed memory hierarchy* block by block, the
placement flips with the old owners kept on the tail (double-read),
and the source unlocks.  A source crash at any yield is detected by
token revalidation (re-sync clears lock owners) and the key simply
re-migrates from the promoted primary.

**Scale-in** (``scale_in``) runs the same machinery from the other
side: the ring shrinks first (reads keep working — the departing shard
still serves its copies during drain-out), hosted keys migrate to
their successors, and only when nothing routes to the shard anymore is
it demoted back to a spare slot.

**Hotspot rebalancing** (:meth:`start_rebalancer`): a policy loop
samples the per-key consumed-read counters every
:data:`REBALANCE_INTERVAL_NS`, promotes extra read replicas for keys
concentrating more than :data:`HOT_SHARE` of the interval's reads
(Zipfian heads), and demotes them once their share falls below
:data:`COOL_SHARE`.  Promotion reuses the migration copy path (lock,
timed copy, placement append, epoch bump), so a promoted replica is
committed-fresh and covered by the primary's replication fan-out from
the moment readers can reach it; demotion mirrors the migration drain
— routing stops at once but the ex-extra stays on the placement tail
(replicated-to, readable) for :data:`DRAIN_NS` before the placement
collapses, so in-flight reads never land on a copy a newer write has
left stale.

Attaching a manager arms the same failure timers a
:class:`~repro.faults.failover.FailoverManager` arms, through
:meth:`ShardedKV.arm_watchdogs` (first watchdog wins, tightest re-route
bound), so the two managers compose in either order.

Everything is deterministic: batch and key order are sorted, tokens
come from a dedicated counter (disjoint from transaction tokens), and
the copy path's cost is independent of block-execution mode — elastic
runs are byte-identical under parallel sweeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.atomicity.locks import is_locked, lock_version
from repro.common.errors import ConfigError
from repro.common.units import CACHE_BLOCK
from repro.objstore.layout import stamped_payload
from repro.objstore.ring import RangeDelta
from repro.objstore.session import OUTAGE_POLL_NS
from repro.objstore.sharded import (
    LOCK_SPIN_NS,
    REROUTE_CHECK_NS,
    RPC_TIMEOUT_NS,
    ShardedKV,
)

#: Fixed per-vnode handoff handshake (ownership-transfer metadata, the
#: coordination a FaRM-style reconfiguration round costs) charged
#: before a batch's keys migrate.
HANDOFF_FIXED_NS = 400.0

#: Double-read grace after the last batch of a topology change: how
#: long readers keep consulting old owners before placements collapse
#: to the fresh-ring lists.  Covers every in-flight read that computed
#: its route against the pre-flip view (bounded by the reroute check).
DRAIN_NS = 5_000.0

#: The hotspot policy.  Every ``REBALANCE_INTERVAL_NS`` the loop looks
#: at the consumed-read counters' delta.  A key concentrating
#: ``>= HOT_SHARE`` of the interval's reads gains an extra read replica
#: (up to the ``max_extra`` the loop was started with); a promoted key
#: falling below ``COOL_SHARE`` loses them again.  Intervals with fewer
#: than ``REBALANCE_MIN_READS`` reads only demote (no promotion on
#: noise).
REBALANCE_INTERVAL_NS = 20_000.0
HOT_SHARE = 0.06
COOL_SHARE = 0.02
REBALANCE_MIN_READS = 32

#: Migration lock tokens live in their own number space, far above any
#: transaction token (:class:`~repro.objstore.txn.TxnManager` counts
#: from 1), so a migration's lock can never be committed or released by
#: a transaction straggler holding an aliased token.
RESHARD_TOKEN_BASE = 1 << 62


# ----------------------------------------------------------------------
# plan + stats
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReshardOp:
    """One planned topology change: ``kind`` is ``"add"`` or
    ``"remove"``; ``shard`` is the slot index."""

    kind: str
    shard: int

    def validate(self, kv: ShardedKV) -> None:
        if self.kind not in ("add", "remove"):
            raise ConfigError(f"unknown reshard op kind {self.kind!r}")
        if not 0 <= self.shard < kv.provisioned:
            raise ConfigError(
                f"shard {self.shard} outside the provisioned slots "
                f"(0..{kv.provisioned - 1}); raise max_shards"
            )


@dataclass
class ReshardStats:
    """Counters over every executed topology change and rebalance."""

    shards_added: int = 0
    #: Per-vnode handoff batches executed (one handshake charge each).
    vnode_handoffs: int = 0
    #: Keys whose placement was migrated (flipped) by a topology change.
    keys_migrated: int = 0
    #: Timed object copies onto new holders (migration + promotion).
    replica_copies: int = 0
    hot_promotions: int = 0
    hot_demotions: int = 0
    #: Outer retries of a per-key migration after the locked source
    #: crashed mid-copy (token revalidation caught it).
    migration_retries: int = 0


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------


class ReshardManager:
    """Executes planned topology changes and the rebalance policy over
    one :class:`ShardedKV`.

    Attach at most one per service; it may coexist with a
    :class:`~repro.faults.failover.FailoverManager` (the fuzz lanes
    run both).  Attaching arms the same failure timers failover arms
    (:meth:`ShardedKV.arm_watchdogs`), so readers re-route promptly
    mid-handoff."""

    def __init__(self, kv: ShardedKV):
        self.kv = kv
        self.stats = ReshardStats()
        self.events: List[Tuple[float, str, int]] = []
        kv.arm_watchdogs(RPC_TIMEOUT_NS, REROUTE_CHECK_NS)
        self._tokens = itertools.count(RESHARD_TOKEN_BASE)
        #: Topology mutex: one migration or promotion mutates placement
        #: at a time (concurrent plans queue behind it).
        self._busy = False
        #: Nesting count of in-flight topology changes (scheduled plans
        #: queued behind the mutex included), for workload metering.
        self.migrating = 0
        #: Slots claimed by a scheduled (not yet executed) scale-out /
        #: scale-in: pending adds and pending removals.  Together with
        #: current membership they are the *intent* every new plan is
        #: validated against at schedule time.
        self._claimed: set = set()
        self._leaving: set = set()
        self._stop_rebalance = False

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def any_migrating(self) -> bool:
        """True while any scheduled topology change has started and not
        yet finished draining (metering windows key on this)."""
        return self.migrating > 0

    def spare_slots(self) -> List[int]:
        """Provisioned slots not currently ring members and not claimed
        by an already-scheduled scale-out, ascending."""
        return [
            s
            for s in range(self.kv.provisioned)
            if not self.kv.members[s] and s not in self._claimed
        ]

    def scale_out(self, count: int, at_ns: float) -> List[int]:
        """Schedule ``count`` spare slots to join at ``at_ns``; returns
        the slot ids chosen (lowest spares first, deterministic)."""
        if count < 1:
            raise ConfigError(f"scale_out needs count >= 1: {count}")
        spares = self.spare_slots()
        if len(spares) < count:
            raise ConfigError(
                f"scale_out of {count} wants more spare slots than the "
                f"{len(spares)} provisioned; raise max_shards"
            )
        chosen = spares[:count]
        self.schedule([ReshardOp("add", s) for s in chosen], at_ns)
        return chosen

    def scale_in(self, shards: Sequence[int], at_ns: float) -> None:
        """Schedule ``shards`` to drain out and leave at ``at_ns``."""
        if not shards:
            raise ConfigError("scale_in needs at least one shard")
        self.schedule([ReshardOp("remove", s) for s in shards], at_ns)

    def schedule(self, ops: Sequence[ReshardOp], at_ns: float) -> None:
        """Schedule a validated op sequence to execute at ``at_ns``
        (plans landing while another runs queue behind its mutex).

        Membership *intent* is validated here, against the membership
        every already-scheduled plan will have produced: adding a
        member (or a slot another plan already claims), removing a
        spare (or a shard already scheduled to leave), and draining
        below the replication factor are all rejected up front —
        never deep inside the simulation at execution time."""
        ops = list(ops)
        kv = self.kv
        intent = list(kv.members)
        for s in self._claimed:
            intent[s] = True
        for s in self._leaving:
            intent[s] = False
        for op in ops:
            op.validate(kv)
            if op.kind == "add":
                if intent[op.shard]:
                    raise ConfigError(
                        f"shard {op.shard} is already a member (or "
                        "claimed by a scheduled scale-out)"
                    )
                intent[op.shard] = True
            else:
                if not intent[op.shard]:
                    raise ConfigError(
                        f"shard {op.shard} is not a member (or already "
                        "scheduled to leave)"
                    )
                survivors = sum(intent) - 1
                if survivors < kv.cfg.replication:
                    raise ConfigError(
                        f"removing shard {op.shard} leaves {survivors} "
                        "members, fewer than replication="
                        f"{kv.cfg.replication}"
                    )
                intent[op.shard] = False
        for op in ops:
            claims = self._claimed if op.kind == "add" else self._leaving
            claims.add(op.shard)
        sim = kv.cluster.sim
        sim.call_at(at_ns, lambda: sim.process(self._execute(ops)))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, ops: List[ReshardOp]):
        sim = self.kv.cluster.sim
        self.migrating += 1
        while self._busy:
            yield OUTAGE_POLL_NS
        self._busy = True
        try:
            for op in ops:
                try:
                    if op.kind == "add":
                        yield from self._add(op.shard)
                    else:
                        yield from self._remove(op.shard)
                except ConfigError:
                    # Execution-time surprises (a fault window changed
                    # membership under an intent-validated plan) abort
                    # the op and release its claim — never the run.
                    self._claimed.discard(op.shard)
                    self._leaving.discard(op.shard)
                    self.events.append((sim.now, "plan_error", op.shard))
        finally:
            self._busy = False
            self.migrating -= 1

    def _add(self, shard: int):
        kv = self.kv
        sim = kv.cluster.sim
        if kv.members[shard]:
            raise ConfigError(f"shard {shard} is already a member")
        kv.activate_shard(shard)
        self._claimed.discard(shard)
        self.events.append((sim.now, "activate", shard))
        deltas = kv.ring.add_shard(shard)
        plan = self._plan_moves(deltas, affected=shard)
        yield from self._run_batches(plan)
        yield from self._drain_and_prune([idx for _b, idx, _p in plan])
        self.stats.shards_added += 1
        self.events.append((sim.now, "added", shard))

    def _remove(self, shard: int):
        kv = self.kv
        sim = kv.cluster.sim
        if not kv.members[shard]:
            raise ConfigError(f"shard {shard} is not a member")
        survivors = len(kv.member_shards()) - 1
        if survivors < kv.cfg.replication:
            raise ConfigError(
                f"removing shard {shard} leaves {survivors} members, "
                f"fewer than replication={kv.cfg.replication}"
            )
        self._leaving.discard(shard)
        self.events.append((sim.now, "draining", shard))
        # Ring shrinks first; the departing shard keeps serving its
        # copies (placement still routes to it) until keys migrate.
        deltas = kv.ring.remove_shard(shard)
        plan = self._plan_moves(deltas, affected=shard)
        yield from self._run_batches(plan)
        yield from self._drain_and_prune([idx for _b, idx, _p in plan])
        kv.deactivate_shard(shard)
        self.events.append((sim.now, "removed", shard))

    def _plan_moves(
        self, deltas: List[RangeDelta], affected: int
    ) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """The migration work list: ``(batch, obj_id, new_placement)``
        sorted by batch then key.  Keys whose *primary* moved batch by
        the vnode whose arc they sit on (per-vnode handoff); keys where
        ``affected`` only enters/leaves the backup tail share one final
        batch (replication fan-in, no ownership handshake per vnode)."""
        kv = self.kv
        arcs = {d.vnode: d for d in deltas}
        backup_batch = (
            max(arcs) + 1 if arcs else 0
        )  # after every vnode batch
        plan: List[Tuple[int, int, Tuple[int, ...]]] = []
        for idx in range(kv.cfg.n_objects):
            key = kv.key_name(idx)
            new_place = kv.ring.replicas(key, kv.cfg.replication)
            place = kv.placement(idx)
            if tuple(new_place) == tuple(place[: len(new_place)]):
                # Placement prefix unchanged — but a scale-in still has
                # to migrate keys keeping the leaver only in a promoted
                # tail; those are pruned with the rest below.
                if affected not in place:
                    continue
            h = kv.ring.key_hash(key)
            batch = backup_batch
            for vnode in sorted(arcs):
                if arcs[vnode].covers(h):
                    batch = vnode
                    break
            plan.append((batch, idx, new_place))
        plan.sort()
        return plan

    def _run_batches(self, plan: List[Tuple[int, int, Tuple[int, ...]]]):
        kv = self.kv
        sim = kv.cluster.sim
        current_batch: Optional[int] = None
        for batch, idx, new_place in plan:
            if batch != current_batch:
                if current_batch is not None:
                    # Close the previous batch: redirect its writers.
                    kv.advance_epoch()
                current_batch = batch
                self.stats.vnode_handoffs += 1
                yield HANDOFF_FIXED_NS
            yield from self._migrate_key(idx, new_place)
        if current_batch is not None:
            kv.advance_epoch()

    def _drain_and_prune(self, moved: List[int]):
        """Double-read grace, then collapse the moved keys' placements
        to exactly the fresh-ring replica lists."""
        kv = self.kv
        sim = kv.cluster.sim
        yield DRAIN_NS
        for idx in moved:
            kv.collapse(idx)
            kv.double_read.discard(idx)
            kv.hot_replicas.pop(idx, None)
        if moved:
            kv.advance_epoch()

    # ------------------------------------------------------------------
    # per-key migration
    # ------------------------------------------------------------------
    def _migrate_key(self, idx: int, new_place: Tuple[int, ...]):
        """Lock-copy-flip-unlock for one key (a sim generator).

        The lock is applied before the first yield, so no writer or
        commit handler can interleave with the lock check; after every
        subsequent yield the owner token is revalidated — a source
        crash clears it (re-sync wipes lock owners) and the key simply
        restarts from the promoted primary."""
        kv = self.kv
        sim = kv.cluster.sim
        while True:
            src = kv.current_primary(idx)
            if src is None:
                yield OUTAGE_POLL_NS
                continue
            version = kv.stores[src].current_version(idx)
            if is_locked(version):
                yield LOCK_SPIN_NS
                continue
            token = next(self._tokens)
            core = kv.next_writer_core(src)
            floor = kv.cfg.costs.writer_block_ns
            latency = kv.lock_object(src, idx, core, version, token)
            # Readers may observe the odd version from here on: the key
            # is in its double-read window before the first yield, so a
            # detecting protocol always has a committed copy to walk to.
            kv.double_read.add(idx)
            yield max(latency, floor)
            if not self._still_mine(src, idx, token):
                self.stats.migration_retries += 1
                continue

            lost = False
            for dest in new_place:
                if dest in kv.placement(idx) and idx in kv.stores[dest]:
                    # A current placement member is replicated-to, so
                    # its copy is already the committed image.  Anyone
                    # else — including a shard that hosted this key on
                    # an earlier tour (scale-out/in round trip, hot-key
                    # re-promotion) and kept a stale at-rest image —
                    # must be (re)copied, never trusted.
                    continue
                # A straggler replica update from before ``dest`` left
                # this key's placement may still be writing its copy;
                # let it finish (it is live and bounded) rather than
                # tear its block writes with the copy's.
                while (
                    idx in kv.stores[dest]
                    and kv.serving[dest]
                    and is_locked(kv.stores[dest].current_version(idx))
                ):
                    yield LOCK_SPIN_NS
                    if not self._still_mine(src, idx, token):
                        lost = True
                        break
                if lost:
                    break
                yield from self._copy_object(idx, dest, version)
                if not self._still_mine(src, idx, token):
                    lost = True
                    break
            if lost:
                self.stats.migration_retries += 1
                continue

            kv.flip(idx, new_place)
            # Unlock the source: committed version back, token dropped.
            # (Functionally first — the token check above means no one
            # else wrote the header while we held it.)
            latency = kv.unlock_object(src, idx, core, version)
            yield max(latency, floor)
            self.stats.keys_migrated += 1
            return

    def _still_mine(self, src: int, idx: int, token: int) -> bool:
        return (
            self.kv.serving[src]
            and self.kv.lock_holders[src].get(idx) == token
        )

    def _copy_object(self, idx: int, dest: int, version: int):
        """Install object ``idx``'s committed image ``version`` on
        ``dest`` and charge the copy through the destination's timed
        memory hierarchy block by block.  The destination is not
        routed to (readers cannot observe the intermediate states),
        but a straggler replica update from an earlier placement tour
        could still race the copy — so the destination's version word
        stays *locked* (odd) until the last block has landed, making
        any racing handler spin instead of interleaving its stale
        blocks with the copy's; the committed header is the copy's
        final write, exactly like a local writer's."""
        kv = self.kv
        sim = kv.cluster.sim
        payload = stamped_payload(version, kv.cfg.payload_len)
        dstore = kv.stores[dest]
        if idx in dstore:
            dstore.phys.write(
                dstore.handle(idx).base_addr,
                kv.layout.pack(version, payload),
            )
        else:
            dstore.create(idx, payload, version=version)
        vaddr = dstore.version_addr(idx)
        dstore.phys.write(
            vaddr, lock_version(version).to_bytes(8, "little")
        )
        handle = dstore.handle(idx)
        image = dstore.phys.read(handle.base_addr, handle.wire_size)
        node = kv.shards[dest]
        core = kv.next_writer_core(dest)
        floor = kv.cfg.costs.writer_block_ns
        for off in range(0, len(image), CACHE_BLOCK):
            latency = node.chip.write_block(
                core, handle.base_addr + off, image[off : off + CACHE_BLOCK]
            )
            yield max(latency, floor)
        latency = node.chip.write_block(
            core, vaddr, version.to_bytes(8, "little")
        )
        yield max(latency, floor)
        self.stats.replica_copies += 1

    # ------------------------------------------------------------------
    # hotspot rebalancing
    # ------------------------------------------------------------------
    def start_rebalancer(self, max_extra: int, until_ns: float = float("inf")):
        """Run the promote/demote policy loop, giving a hot key at most
        ``max_extra`` extra read replicas, until ``until_ns`` (or
        :meth:`stop_rebalancer`).  An unbounded loop keeps the event
        heap non-empty forever — pass ``until_ns`` when the run relies
        on ``sim.run()`` draining."""
        self._stop_rebalance = False
        return self.kv.cluster.sim.process(
            self._rebalance_loop(max_extra, until_ns)
        )

    def stop_rebalancer(self) -> None:
        self._stop_rebalance = True

    def _routed_snapshot(self) -> List[int]:
        return [s.reads_routed for s in self.kv.merged_shard_stats()]

    def _rebalance_loop(self, max_extra: int, until_ns: float):
        kv = self.kv
        sim = kv.cluster.sim
        last = list(kv.key_reads)
        last_routed = self._routed_snapshot()
        while not self._stop_rebalance and sim.now < until_ns:
            yield min(REBALANCE_INTERVAL_NS, until_ns - sim.now)
            if self._stop_rebalance:
                return
            current = list(kv.key_reads)
            delta = [c - p for c, p in zip(current, last)]
            last = current
            routed = self._routed_snapshot()
            routed_delta = [c - p for c, p in zip(routed, last_routed)]
            last_routed = routed
            if self._busy:
                # A topology change owns placement right now; skip the
                # interval rather than interleave with its yields.
                continue
            total = sum(delta)
            for idx in sorted(kv.hot_replicas):
                share = delta[idx] / total if total else 0.0
                if share < COOL_SHARE:
                    self._demote(idx)
            if total < REBALANCE_MIN_READS:
                continue
            ranked = sorted(
                range(len(delta)), key=lambda i: (-delta[i], i)
            )
            for idx in ranked:
                if delta[idx] / total < HOT_SHARE:
                    break
                yield from self._promote(idx, max_extra, routed_delta)

    def _promote(
        self, idx: int, max_extra: int, routed: Optional[Sequence[int]] = None
    ):
        """Add one extra read replica for hot key ``idx`` (lock, timed
        copy, placement append, epoch bump — the migration copy path,
        so the new copy is committed-fresh and replicated-to)."""
        kv = self.kv
        if self._busy or idx in kv.double_read:
            return
        extras = kv.hot_replicas.get(idx, [])
        if len(extras) >= max_extra:
            return
        placed = kv.placement(idx)
        # Coldest serving member over the *sampling interval* first:
        # the interval's routed-read delta is the load signal, so a
        # promotion lands where pressure is low right now — lifetime
        # totals would let early-run history keep steering promotions
        # onto a currently-hot shard late in a long run.
        if routed is None:
            routed = [0] * kv.provisioned
        candidates = sorted(
            (
                s
                for s in kv.member_shards()
                if kv.serving[s] and s not in placed
            ),
            key=lambda s: (routed[s], s),
        )
        if not candidates:
            return
        dest = candidates[0]
        self._busy = True
        try:
            yield from self._migrate_key(idx, placed + (dest,))
        finally:
            self._busy = False
        kv.double_read.discard(idx)
        kv.hot_replicas.setdefault(idx, []).append(dest)
        kv.advance_epoch()
        self.stats.hot_promotions += 1
        self.events.append((kv.cluster.sim.now, "promote", idx))

    def _demote(self, idx: int) -> None:
        """Drop key ``idx``'s promoted extras.

        Routing stops immediately (the lookup rotation keys off
        ``hot_replicas``), but — mirroring the migration drain — the
        ex-extras stay on the placement tail for :data:`DRAIN_NS`: still
        replicated-to and still readable, so an in-flight read that
        computed its route pre-demotion can never consume a copy a
        subsequent write has left stale.  Only after the grace does
        the placement collapse."""
        kv = self.kv
        extras = kv.hot_replicas.pop(idx, [])
        if not extras:
            return
        kv.advance_epoch()
        self.stats.hot_demotions += 1
        self.events.append((kv.cluster.sim.now, "demote", idx))
        kv.cluster.sim.process(self._prune_demoted(idx, set(extras)))

    def _prune_demoted(self, idx: int, gone: set):
        """After the demotion grace, drop ``gone`` from key ``idx``'s
        placement — unless a shard was legitimately re-placed in the
        meantime (fresh-ring ownership after a topology change, or a
        re-promotion) in which case it stays."""
        kv = self.kv
        sim = kv.cluster.sim
        yield DRAIN_NS
        fresh = set(
            kv.ring.replicas(kv.key_name(idx), kv.cfg.replication)
        )
        kv.drop_holders(
            idx, gone - fresh - set(kv.hot_replicas.get(idx, ()))
        )
