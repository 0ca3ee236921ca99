"""Consistent-hash placement for the sharded store: the ring and the
arcs an incremental membership change moves.

A pure function of ``(seed, shard ids, key)`` — no simulator, no
cluster: :class:`~repro.objstore.sharded.ShardedKV` builds one to place
its objects and :class:`~repro.objstore.reshard.ReshardManager` grows
and shrinks it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed


@dataclass(frozen=True)
class RangeDelta:
    """One moved arc of the ring: key hashes in the cyclic half-open
    interval ``[lo, hi)`` changed primary owner from ``old_shard`` to
    ``new_shard`` because ``new_shard``'s virtual node ``vnode`` was
    inserted (or removed — then the names read the other way: the
    departing vnode's arc is handed *to* ``new_shard``).  ``lo >= hi``
    means the arc wraps through zero.  Incremental
    :meth:`HashRing.add_shard` / :meth:`HashRing.remove_shard` report
    exactly these arcs, and only these arcs, so a migration plan can
    touch only the keys that actually moved."""

    lo: int
    hi: int
    old_shard: int
    new_shard: int
    vnode: int

    def covers(self, h: int) -> bool:
        """Whether key hash ``h`` lies on this arc."""
        if self.lo < self.hi:
            return self.lo <= h < self.hi
        return h >= self.lo or h < self.hi


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Every shard contributes ``vnodes`` points to a 64-bit ring; a key
    is owned by the first point at or after its hash (wrapping).  All
    hashes come from :func:`repro.common.rng.derive_seed`, so the
    mapping is a deterministic function of ``(seed, shard ids, key)``
    — identical across runs, processes, and worker pools.

    Points are kept as ``(hash, shard, vnode)`` triples sorted on the
    *full* tuple: two vnodes colliding on the same 64-bit hash order by
    ``(shard, vnode)``, never by construction accident, so the mapping
    survives incremental :meth:`add_shard` / :meth:`remove_shard` in
    any order — the incremental ring is always point-for-point
    identical to a fresh build over the same member set (the property
    that makes a finished migration indistinguishable from a fresh
    deployment).
    """

    def __init__(self, shard_ids: Iterable[int], vnodes: int = 64, seed: int = 1):
        shard_ids = list(shard_ids)
        if not shard_ids:
            raise ConfigError("hash ring needs at least one shard")
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1: {vnodes}")
        self.seed = seed
        self.vnodes = vnodes
        self.shard_ids = shard_ids
        points: List[Tuple[int, int, int]] = []
        for shard in shard_ids:
            for v in range(vnodes):
                points.append((self._point(shard, v), shard, v))
        points.sort()
        self._points = points
        self._hashes = [p[0] for p in points]

    def _point(self, shard: int, vnode: int) -> int:
        """The 64-bit ring position of one virtual node (overridable so
        the collision regression tests can force equal points)."""
        return derive_seed(self.seed, "ring", shard, vnode)

    def key_hash(self, key: str) -> int:
        """The 64-bit ring position of ``key`` (what
        :class:`RangeDelta` arcs cover)."""
        return derive_seed(self.seed, "ring-key", key)

    def _slot(self, key: str) -> int:
        return bisect.bisect_right(self._hashes, self.key_hash(key)) % len(
            self._points
        )

    def primary(self, key: str) -> int:
        """The shard owning ``key``."""
        return self._points[self._slot(key)][1]

    def replicas(self, key: str, n: int) -> Tuple[int, ...]:
        """``min(n, shards)`` distinct shards for ``key``, primary
        first, in ring walk order (the standard consistent-hashing
        successor list).

        ``n`` is clamped to the shard count rather than rejected: a
        successor list can never name more distinct shards than exist,
        and callers sizing replication against a shrinking deployment
        want the longest valid list, not an error.  The walk covers
        every ring point, so even adversarial vnode placements (all of
        one shard's points clustered, hash collisions between shards'
        points) cannot make the list shorter than that."""
        if n < 1:
            raise ConfigError(f"replication must be >= 1: {n}")
        want = min(n, len(self.shard_ids))
        seen = set()
        out: List[int] = []
        start = self._slot(key)
        for step in range(len(self._points)):
            shard = self._points[(start + step) % len(self._points)][1]
            if shard not in seen:
                seen.add(shard)
                out.append(shard)
                if len(out) == want:
                    break
        if len(out) != want:  # pragma: no cover - full walk finds all
            raise ConfigError(
                f"ring walk found {len(out)} shards, wanted {want}"
            )
        return tuple(out)

    # ------------------------------------------------------------------
    # incremental membership (live resharding)
    # ------------------------------------------------------------------
    def add_shard(self, shard: int) -> List[RangeDelta]:
        """Insert ``shard``'s vnode points incrementally and report the
        exact arcs whose primary owner changed.

        Only the moved ranges are recomputed: each of the ``vnodes``
        new points takes over the arc between its predecessor point and
        itself, *iff* it becomes the head of its hash run (the lookup
        is ``bisect_right``, so within a run of equal hashes only the
        tuple-smallest point ever owns keys — a collision-shadowed
        point owns nothing and reports nothing).  Arcs already handed
        to an earlier vnode of the same new shard are skipped too, so
        the deltas name every key whose primary moved exactly once."""
        if shard in self.shard_ids:
            raise ConfigError(f"shard {shard} is already a ring member")
        deltas: List[RangeDelta] = []
        for v in range(self.vnodes):
            point = (self._point(shard, v), shard, v)
            i = bisect.bisect_left(self._points, point)
            head = i == 0 or self._points[i - 1][0] < point[0]
            old_owner = self._points[i % len(self._points)][1]
            self._points.insert(i, point)
            self._hashes.insert(i, point[0])
            if head and old_owner != shard:
                lo = self._points[(i - 1) % len(self._points)][0]
                deltas.append(
                    RangeDelta(
                        lo=lo,
                        hi=point[0],
                        old_shard=old_owner,
                        new_shard=shard,
                        vnode=v,
                    )
                )
        self.shard_ids.append(shard)
        return deltas

    def remove_shard(self, shard: int) -> List[RangeDelta]:
        """Remove ``shard``'s vnode points incrementally and report the
        exact arcs handed to their successors.

        The per-vnode deltas compose: when several of the departing
        shard's points are ring-adjacent, the intermediate self-handoffs
        are elided and the surviving delta's arc reaches back over the
        whole run, so coverage stays exact."""
        if shard not in self.shard_ids:
            raise ConfigError(f"shard {shard} is not a ring member")
        if len(self.shard_ids) == 1:
            raise ConfigError("cannot remove the last ring member")
        deltas: List[RangeDelta] = []
        for v in range(self.vnodes):
            point = (self._point(shard, v), shard, v)
            i = bisect.bisect_left(self._points, point)
            if i >= len(self._points) or self._points[i] != point:
                raise ConfigError(  # pragma: no cover - internal invariant
                    f"ring point for shard {shard} vnode {v} missing"
                )
            head = i == 0 or self._points[i - 1][0] < point[0]
            del self._points[i]
            del self._hashes[i]
            if head:
                n = len(self._points)
                new_owner = self._points[i % n][1]
                if new_owner != shard:
                    lo = self._points[(i - 1) % n][0]
                    deltas.append(
                        RangeDelta(
                            lo=lo,
                            hi=point[0],
                            old_shard=shard,
                            new_shard=new_owner,
                            vnode=v,
                        )
                    )
        self.shard_ids.remove(shard)
        return deltas
