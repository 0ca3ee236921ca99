"""Byte-accurate backing store for each node's physical memory.

The object stores, version protocols, and transfer payloads operate on
real bytes so that atomicity violations (torn reads) are observable
facts, not modeling assumptions.  Allocation is a simple bump allocator
over contiguous regions; a region is one cell, or — for a store
populated in one pass — a run of equal cells that bounds every access
to the cell it starts in.  A cell's bytes exist from its first access
(a read or a write): until then it is the region's image, held once.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from repro.common.errors import SimulationError


#: ``(lo, hi, buffer, address of buffer[0])`` of a cell that contains
#: no address: what a cached cell is before its first lookup.
NO_CELL: Tuple[int, int, bytearray, int] = (1, 0, bytearray(), 0)


class PhysicalMemory:
    """Sparse physical memory made of bump-allocated regions."""

    __slots__ = ("_next", "_alignment", "_starts", "_regions", "_last")

    def __init__(self, base: int = 0x10000, alignment: int = 64):
        self._next = base
        self._alignment = alignment
        self._starts: List[int] = []
        #: ``(base, end, stride, cell, image, cells)``: cells of
        #: ``cell`` bytes every ``stride`` bytes from ``base`` up to
        #: ``base + end`` (one cell for :meth:`allocate`), each starting
        #: as ``image``; ``cells`` maps a cell's index to its bytes,
        #: made on the cell's first access.
        self._regions: List[
            Tuple[int, int, int, int, bytes, Dict[int, bytearray]]
        ] = []
        #: Last cell hit by :meth:`_locate`, as ``(lo, hi, buffer,
        #: address of buffer[0])`` — accesses cluster on one object
        #: (block-by-block reads/writes), so this short-circuits the
        #: bisect on the common case.
        self._last = NO_CELL

    def allocate(self, size: int, align: int = 0) -> int:
        """Allocate ``size`` zeroed bytes; returns the base address."""
        return self.allocate_cells(1, size, align)[0]

    def allocate_cells(
        self, count: int, size: int, align: int = 0, image: bytes = b""
    ) -> range:
        """Allocate ``count`` cells of ``size`` bytes in one region, at
        the addresses ``count`` successive ``allocate(size, align)``
        calls would return (the returned range), each starting with
        ``image`` and zeroed after it.  An access must stay inside the
        cell it starts in, as if each cell were its own region.

        No cell's bytes are made here: the region holds ``image`` once,
        and a cell gets its own ``size`` bytes (the image copied in)
        the first time a read or a write reaches it, so a store costs
        the objects a run touches."""
        if size <= 0:
            raise SimulationError(f"allocation size must be positive: {size}")
        if count <= 0:
            raise SimulationError(f"cell count must be positive: {count}")
        if len(image) > size:
            raise SimulationError(
                f"image of {len(image)} bytes exceeds the {size}-byte cell"
            )
        align = align or self._alignment
        base = self._next
        if base % align:
            base += align - (base % align)
        stride = size + (-size % align)
        # The last cell carries no padding: the next allocation starts
        # (aligned) right after its ``size`` bytes.
        end = (count - 1) * stride + size
        self._next = base + end
        self._starts.append(base)
        self._regions.append((base, end, stride, size, bytes(image), {}))
        return range(base, base + count * stride, stride)

    def release(self) -> None:
        """Give every cell's bytes back and unmap everything: each
        later access raises the unmapped-address error.  The cells are
        emptied in place, so the ones that transfers and ATT entries
        cached (``(lo, hi, buffer, origin)``, like ``_last``) cannot
        keep the bytes alive."""
        for region in self._regions:
            cells = region[5]
            for buf in cells.values():
                buf.clear()
            cells.clear()
        self._starts.clear()
        self._regions.clear()
        self._last = NO_CELL

    def _locate(self, addr: int, size: int) -> Tuple[bytearray, int]:
        lo, hi, buf, origin = self._last
        if lo <= addr and addr + size <= hi:
            return buf, addr - origin
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            raise SimulationError(f"access to unmapped address {addr:#x}")
        base, end, stride, cell, image, cells = self._regions[idx]
        offset = addr - base
        index, within = divmod(offset, stride)
        if offset >= end or within + size > cell:
            raise SimulationError(
                f"access [{addr:#x}, +{size}) overruns region at "
                f"{addr - within:#x}"
            )
        buf = cells.get(index)
        if buf is None:
            buf = cells[index] = bytearray(cell)
            buf[: len(image)] = image
        lo = addr - within
        self._last = (lo, lo + cell, buf, lo)
        return buf, within

    def read(self, addr: int, size: int) -> bytes:
        lo, hi, buf, origin = self._last
        if lo <= addr and addr + size <= hi:
            off = addr - origin
        else:
            buf, off = self._locate(addr, size)
        return bytes(buf[off : off + size])

    def write(self, addr: int, data: bytes) -> None:
        size = len(data)
        lo, hi, buf, origin = self._last
        if lo <= addr and addr + size <= hi:
            off = addr - origin
        else:
            buf, off = self._locate(addr, size)
        buf[off : off + size] = data

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))
