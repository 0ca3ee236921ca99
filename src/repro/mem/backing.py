"""Byte-accurate backing store for each node's physical memory.

The object stores, version protocols, and transfer payloads operate on
real bytes so that atomicity violations (torn reads) are observable
facts, not modeling assumptions.  Allocation is a simple bump allocator
over contiguous regions; a region is one cell, or — for a store
populated in one pass — a run of equal cells that bounds every access
to the cell it starts in.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

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
        #: ``(base, buffer, stride, cell)``: cells of ``cell`` bytes
        #: every ``stride`` bytes from ``base`` (one cell spanning the
        #: whole buffer for :meth:`allocate`).
        self._regions: List[Tuple[int, bytearray, int, int]] = []
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
        cell it starts in, as if each cell were its own region."""
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
        buf = bytearray(stride)
        buf[: len(image)] = image
        buf *= count
        # The last cell carries no padding: the next allocation starts
        # (aligned) right after its ``size`` bytes.
        del buf[len(buf) - (stride - size) :]
        self._next = base + len(buf)
        self._starts.append(base)
        self._regions.append((base, buf, stride, size))
        return range(base, base + count * stride, stride)

    def release(self) -> None:
        """Give every region's bytes back and unmap everything: each
        later access raises the unmapped-address error.  The buffers
        are emptied in place, so the cells that transfers and ATT
        entries cached (``(lo, hi, buffer, origin)``, like ``_last``)
        cannot keep the bytes alive."""
        for _base, buf, _stride, _cell in self._regions:
            buf.clear()
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
        base, buf, stride, cell = self._regions[idx]
        offset = addr - base
        within = offset % stride
        if offset >= len(buf) or within + size > cell:
            raise SimulationError(
                f"access [{addr:#x}, +{size}) overruns region at "
                f"{addr - within:#x}"
            )
        lo = addr - within
        self._last = (lo, lo + cell, buf, base)
        return buf, offset

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
