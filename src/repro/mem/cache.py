"""Behavioral LRU cache model used for both L1s and the LLC."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.common.errors import SimulationError


class LruCache:
    """Fully-associative LRU over cache-block addresses.

    Holds no data (data lives in :class:`PhysicalMemory`); tracks which
    blocks are resident and which are dirty, and reports evictions so
    the directory can deliver eviction-triggered invalidations — the
    source of LightSABRes' "false alarm" validate path (§4.2).
    """

    __slots__ = ("capacity", "name", "_blocks")

    def __init__(self, capacity_blocks: int, name: str = ""):
        if capacity_blocks < 1:
            raise SimulationError(f"capacity must be >= 1: {capacity_blocks}")
        self.capacity = capacity_blocks
        self.name = name
        self._blocks: "OrderedDict[int, bool]" = OrderedDict()  # addr -> dirty

    def insert(
        self, block_addr: int, dirty: bool = False
    ) -> Optional[tuple[int, bool]]:
        """Insert (or update) a block; returns ``(evicted_addr, was_dirty)``
        if an eviction was required, else None."""
        if block_addr in self._blocks:
            self._blocks[block_addr] = self._blocks[block_addr] or dirty
            self._blocks.move_to_end(block_addr)
            return None
        evicted = None
        if len(self._blocks) >= self.capacity:
            evicted = self._blocks.popitem(last=False)
        self._blocks[block_addr] = dirty
        return evicted

    def invalidate(self, block_addr: int) -> bool:
        """Drop a block (coherence invalidation); True if present."""
        return self._blocks.pop(block_addr, None) is not None

    def mark_clean(self, block_addr: int) -> None:
        if block_addr in self._blocks:
            self._blocks[block_addr] = False
