"""Memory-hierarchy substrate: backing store, caches, coherence
directory, and the per-chip memory system (Table 2)."""

from repro.mem.backing import PhysicalMemory
from repro.mem.cache import LruCache
from repro.mem.system import AccessTier, ChipMemorySystem, InvalidationCause

__all__ = [
    "AccessTier",
    "ChipMemorySystem",
    "InvalidationCause",
    "LruCache",
    "PhysicalMemory",
]
