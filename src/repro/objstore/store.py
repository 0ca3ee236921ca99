"""Object store: allocation, functional access, and writer update plans.

The store owns a region of a node's physical memory and places objects
in it (64 B-aligned, so distinct objects never share a cache block).
Besides zero-time functional reads/writes (used for setup and ground
truth), it produces *update plans*: the exact block-granularity write
sequence a writer core performs under the odd/even version protocol
(§4.2) — header locked first, data blocks next, commit version last.
Timed writers replay these steps through the chip memory system so
that coherence invalidations fire in the right order.
"""

from __future__ import annotations

import operator
import weakref
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.atomicity.locks import commit_version, is_locked, lock_version
from repro.common.errors import SimulationError
from repro.common.units import CACHE_BLOCK, blocks_in
from repro.mem.backing import PhysicalMemory
from repro.objstore.layout import ObjectLayout, StripResult

VERSION_BYTES = 8

#: One step of an update plan: (address, bytes to store).
WriteStep = Tuple[int, bytes]


@dataclass(frozen=True)
class ObjectHandle:
    """Placement of one object inside a store's region."""

    obj_id: int
    base_addr: int
    data_len: int
    wire_size: int

    @property
    def num_blocks(self) -> int:
        # Objects start on a block boundary (``create``/``populate``
        # allocate block-aligned).
        return blocks_in(self.wire_size)


def _id_order(ids: Sequence[int]) -> Optional[Sequence[int]]:
    """The positions of ``ids`` in ascending id order, or None when the
    ids already ascend (every range of positive step, and each id list
    the sharded store populates): then a run costs nothing beyond its
    ids, and otherwise one machine int per id.  Raises on a repeated
    id."""
    n = len(ids)
    if isinstance(ids, range):
        return None if ids.step > 0 else range(n - 1, -1, -1)
    if all(map(operator.lt, ids, ids[1:])):
        return None
    order = array("q", sorted(range(n), key=ids.__getitem__))
    if any(ids[a] == ids[b] for a, b in zip(order, order[1:])):
        raise SimulationError("populate: obj_ids repeats an id")
    return order


class PopulatedRun:
    """The objects one :meth:`ObjectStore.populate` call placed: the
    call's ids in order (``ids``: its range, or an ``array`` of them),
    the cells they got (``addrs``, the range
    :meth:`PhysicalMemory.allocate_cells` returned) and their shape.
    It holds no handle: iterating it yields each id's handle as
    :meth:`ObjectStore.handle` makes and caches it."""

    __slots__ = ("_store", "ids", "_order", "addrs", "data_len", "wire_size")

    def __init__(
        self,
        store: ObjectStore,
        ids: Sequence[int],
        order: Optional[Sequence[int]],
        addrs: range,
        data_len: int,
        wire_size: int,
    ):
        #: Weak: the store holds its runs.
        self._store = weakref.ref(store)
        self.ids = ids
        #: :func:`_id_order` of ``ids``.
        self._order = order
        self.addrs = addrs
        self.data_len = data_len
        self.wire_size = wire_size

    def position(self, obj_id: int) -> Optional[int]:
        """``obj_id``'s index in the run, or None if the run lacks it:
        a binary search over the ids in ascending order."""
        ids = self.ids
        order = self._order
        if order is None:
            i = bisect_left(ids, obj_id)
            return i if i < len(ids) and ids[i] == obj_id else None
        i = bisect_left(order, obj_id, key=ids.__getitem__)
        if i < len(order) and ids[order[i]] == obj_id:
            return order[i]
        return None

    def __iter__(self) -> Iterator[ObjectHandle]:
        return map(self._store().handle, self.ids)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Iterable) and list(self) == list(other)


class ObjectStore:
    """A node-local object store with a fixed layout."""

    def __init__(
        self,
        phys: PhysicalMemory,
        layout: ObjectLayout,
        name: str = "store",
    ):
        self.phys = phys
        self.layout = layout
        self.name = name
        #: The handles made so far: every created object's, and every
        #: populated object's from its first :meth:`handle`.
        self._objects: Dict[int, ObjectHandle] = {}
        self._runs: List[PopulatedRun] = []
        self._count = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def create(self, obj_id: int, data: bytes, version: int = 0) -> ObjectHandle:
        """Allocate and initialize an object with a committed image."""
        if obj_id in self:
            raise SimulationError(f"object {obj_id} already exists")
        if is_locked(version):
            raise SimulationError("initial version must be even (committed)")
        wire = self.layout.wire_size(len(data))
        base = self.phys.allocate(max(wire, CACHE_BLOCK), align=CACHE_BLOCK)
        handle = ObjectHandle(obj_id, base, len(data), wire)
        self._objects[obj_id] = handle
        self._count += 1
        self.phys.write(base, self.layout.pack(version, data))
        return handle

    def populate(
        self, obj_ids: Iterable[int], data: bytes, version: int = 0
    ) -> Iterable[ObjectHandle]:
        """Create every object of ``obj_ids`` with the same committed
        image, at the addresses one :meth:`create` per id would have
        used: the image is packed once and the objects are the cells of
        one memory region.  Refuses before it allocates anything.

        The call is recorded as one :class:`PopulatedRun` (returned)
        and makes no handle: :meth:`handle` makes each on first use.
        A ``range`` of ids costs the same whatever its length."""
        ids = obj_ids if isinstance(obj_ids, range) else array("q", obj_ids)
        if is_locked(version):
            raise SimulationError("initial version must be even (committed)")
        order = _id_order(ids)
        if self._count:
            taken = [obj_id for obj_id in ids if obj_id in self]
            if taken:
                raise SimulationError(f"object {min(taken)} already exists")
        if not ids:
            return []
        wire = self.layout.wire_size(len(data))
        addrs = self.phys.allocate_cells(
            len(ids),
            max(wire, CACHE_BLOCK),
            CACHE_BLOCK,
            self.layout.pack(version, data),
        )
        run = PopulatedRun(self, ids, order, addrs, len(data), wire)
        self._runs.append(run)
        self._count += len(ids)
        return run

    def handle(self, obj_id: int) -> ObjectHandle:
        """``obj_id``'s placement.  A populated object's handle is made
        from its run on first use and cached, like a created one's."""
        try:
            return self._objects[obj_id]
        except KeyError:
            pass
        for run in self._runs:
            pos = run.position(obj_id)
            if pos is not None:
                handle = ObjectHandle(
                    obj_id, run.addrs[pos], run.data_len, run.wire_size
                )
                self._objects[obj_id] = handle
                return handle
        raise SimulationError(f"unknown object {obj_id}")

    def __len__(self) -> int:
        return self._count

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._objects or any(
            run.position(obj_id) is not None for run in self._runs
        )

    # ------------------------------------------------------------------
    # functional access (zero simulated time)
    # ------------------------------------------------------------------
    def read_raw(self, obj_id: int) -> bytes:
        h = self.handle(obj_id)
        return self.phys.read(h.base_addr, h.wire_size)

    def read(self, obj_id: int) -> StripResult:
        h = self.handle(obj_id)
        return self.layout.unpack(self.read_raw(obj_id), h.data_len)

    def version_addr(self, obj_id: int) -> int:
        return self.handle(obj_id).base_addr + self.layout.version_offset

    def current_version(self, obj_id: int) -> int:
        return self.phys.read_u64(self.version_addr(obj_id))

    def write(self, obj_id: int, data: bytes) -> int:
        """Functional committed update; returns the new version."""
        for _addr, chunk in self.update_steps(obj_id, data)[0]:
            self.phys.write(_addr, chunk)
        return self.current_version(obj_id)

    # ------------------------------------------------------------------
    # writer protocol
    # ------------------------------------------------------------------
    def update_steps(
        self, obj_id: int, data: bytes
    ) -> Tuple[List[WriteStep], int]:
        """Block-granularity write plan for one committed update.

        Step order implements §4.2's contract: (1) header version goes
        odd (the base-block write every reader's snoop keys on), (2)
        each block of the new image is stored, (3) the header version
        goes even.  Returns ``(steps, commit_version)``.
        """
        h = self.handle(obj_id)
        current = self.current_version(obj_id)
        locked = lock_version(current)
        vo = self.layout.version_offset
        steps: List[WriteStep] = [
            (h.base_addr + vo, locked.to_bytes(8, "little"))
        ]
        tail, committed = self._commit_tail(h, locked, data)
        steps.extend(tail)
        return steps, committed

    def _commit_tail(
        self, h: ObjectHandle, locked: int, data: bytes
    ) -> Tuple[List[WriteStep], int]:
        """Steps (2)-(3) of the §4.2 plan, shared by :meth:`update_steps`
        and :meth:`commit_steps` so the plain-put and transactional
        write paths can never desynchronize: the new committed image
        block by block (header word still ``locked``), then the even
        version."""
        if len(data) != h.data_len:
            raise SimulationError(
                f"object {h.obj_id} holds {h.data_len} bytes; "
                f"updates must preserve the size (got {len(data)})"
            )
        committed = commit_version(locked)
        image = bytearray(self.layout.pack(committed, data))
        vo = self.layout.version_offset
        image[vo : vo + VERSION_BYTES] = locked.to_bytes(8, "little")

        steps: List[WriteStep] = []
        base = h.base_addr
        # Slice through a memoryview: one copy per block step instead
        # of bytearray-slice + bytes (the put path builds one plan per
        # committed update).
        mv = memoryview(image)
        for off in range(0, len(image), CACHE_BLOCK):
            steps.append((base + off, bytes(mv[off : off + CACHE_BLOCK])))
        mv.release()
        steps.append((base + vo, committed.to_bytes(8, "little")))
        return steps, committed

    def commit_steps(
        self, obj_id: int, data: bytes
    ) -> Tuple[List[WriteStep], int]:
        """Write plan finishing an update on an *already locked* object:
        data blocks carrying the new committed image first, the header
        version going even last.

        This is the tail of :meth:`update_steps` for writers whose lock
        acquisition happened earlier and separately — the transaction
        layer's commit phase, where the lock RPC flipped the version odd
        before validation.  Raises when the object is not locked.
        """
        h = self.handle(obj_id)
        locked = self.current_version(obj_id)
        if not is_locked(locked):
            raise SimulationError(
                f"object {obj_id} is not locked (version {locked}); "
                "commit_steps needs a prior lock acquisition"
            )
        return self._commit_tail(h, locked, data)
