"""Units and unit conversions used throughout the simulator.

All simulated time is measured in **nanoseconds** (floats), all sizes in
**bytes** (ints), and all bandwidths internally in **bytes per
nanosecond** (1 GB/s == 1 byte/ns when GB means 1e9 bytes, the
convention the paper uses for fabric and memory bandwidth).
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB

#: Cache block (cache line) size in bytes; fixed by Table 2 of the paper.
CACHE_BLOCK = 64

#: One gigahertz expressed in cycles per nanosecond.
GHZ = 1.0


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Convert GB/s (1e9 bytes per second) to bytes per nanosecond."""
    if gbps < 0:
        raise ValueError(f"bandwidth must be non-negative, got {gbps}")
    return gbps  # 1e9 B/s == 1 B/ns


def blocks_in(size_bytes: int, block: int = CACHE_BLOCK) -> int:
    """Number of cache blocks needed to hold ``size_bytes`` bytes."""
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    return (size_bytes + block - 1) // block
