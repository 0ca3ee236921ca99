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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.common.errors import SimulationError
from repro.common.units import CACHE_BLOCK
from repro.mem.address import AddressRange
from repro.mem.backing import PhysicalMemory
from repro.objstore.layout import (
    ObjectLayout,
    StripResult,
    commit_version,
    is_locked,
    lock_version,
)

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
    def range(self) -> AddressRange:
        return AddressRange(self.base_addr, self.wire_size)

    @property
    def num_blocks(self) -> int:
        return self.range.num_blocks()


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
        self._objects: Dict[int, ObjectHandle] = {}

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def create(self, obj_id: int, data: bytes, version: int = 0) -> ObjectHandle:
        """Allocate and initialize an object with a committed image."""
        if obj_id in self._objects:
            raise SimulationError(f"object {obj_id} already exists")
        if is_locked(version):
            raise SimulationError("initial version must be even (committed)")
        wire = self.layout.wire_size(len(data))
        base = self.phys.allocate(max(wire, CACHE_BLOCK), align=CACHE_BLOCK)
        handle = ObjectHandle(obj_id, base, len(data), wire)
        self._objects[obj_id] = handle
        self.phys.write(base, self.layout.pack(version, data))
        return handle

    def populate(
        self, obj_ids: Iterable[int], data: bytes, version: int = 0
    ) -> List[ObjectHandle]:
        """Create every object of ``obj_ids`` with the same committed
        image, at the addresses one :meth:`create` per id would have
        used: the image is packed once and the objects are the cells of
        one memory region.  Refuses before it allocates anything."""
        ids = list(obj_ids)
        if is_locked(version):
            raise SimulationError("initial version must be even (committed)")
        fresh = set(ids)
        if len(fresh) != len(ids):
            raise SimulationError("populate: obj_ids repeats an id")
        taken = fresh & self._objects.keys()
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
        handles = [
            ObjectHandle(obj_id, base, len(data), wire)
            for obj_id, base in zip(ids, addrs)
        ]
        self._objects.update(zip(ids, handles))
        return handles

    def handle(self, obj_id: int) -> ObjectHandle:
        try:
            return self._objects[obj_id]
        except KeyError:
            raise SimulationError(f"unknown object {obj_id}") from None

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._objects

    def object_ids(self) -> List[int]:
        return list(self._objects)

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
