"""Active Transfers Table (§4.2, Fig. 4).

An ATT entry represents one SABRe during its lifetime: base address,
size, the soNUMA request counter (§5.1), the issue counter, the
speculation bit that marks the window of vulnerability, the version
field recorded when the object's header is first read, and the
pending-validate flag raised by ambiguous base-block invalidations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.core.stream_buffer import StreamBuffer
from repro.mem.backing import NO_CELL

#: (source node, request-generation pipeline id, transfer id) — §5.1.
SabreId = Tuple[int, int, int]


@dataclass(slots=True)
class AttEntry:
    """One in-flight SABRe at the destination R2P2."""

    sabre_id: SabreId
    base_addr: int
    total_blocks: int
    size_bytes: int
    stream_buffer: StreamBuffer
    registered_at: float

    req_counter: int = 0  # request packets received (§5.1 folding)
    issue_count: int = 0  # loads issued to the memory hierarchy
    received_bits: int = 0  # replies back from memory (bitvector)
    replied_bits: int = 0  # replies sent to the source (bitvector)
    replied_count: int = 0

    version: Optional[int] = None  # ATT version field (§4.2)
    speculative: bool = True  # set during the window of vulnerability
    pending_validate: bool = False  # base-block invalidation seen
    aborted: bool = False
    abort_cause: Optional[str] = None
    validating: bool = False
    finished: bool = False
    retries: int = 0  # hardware-retry ablation (§5.1)
    epoch: int = 0  # bumped by each hardware retry to squash stale replies
    subscribed_blocks: List[int] = field(default_factory=list)
    lock_held: bool = False  # LOCKING variant bookkeeping
    snoop_cb: Optional[Callable[[int, object], None]] = None
    #: The memory cell the object lies in, as ``PhysicalMemory._locate``
    #: caches it, found at the SABRe's first access (see
    #: ``SourceTransfer.landing_cell``).
    cell: Tuple[int, int, bytearray, int] = NO_CELL

    def mark_received(self, offset: int) -> None:
        self.received_bits |= 1 << offset

    def is_received(self, offset: int) -> bool:
        return bool(self.received_bits >> offset & 1)

    def mark_replied(self, offset: int) -> bool:
        """Record a reply for ``offset``; False if already replied."""
        if self.replied_bits >> offset & 1:
            return False
        self.replied_bits |= 1 << offset
        self.replied_count += 1
        return True

    @property
    def all_replied(self) -> bool:
        return self.replied_count >= self.total_blocks

    def block_addr(self, offset: int) -> int:
        return self.base_addr + offset * 64


class ActiveTransfersTable:
    """Fixed-size table of ATT entries, one stream buffer each.

    When every entry is busy, new registrations queue (the R2P2 simply
    exerts backpressure; §4.1's sizing argument makes this rare for the
    paper's configuration)."""

    def __init__(self, entries: int, stream_buffer_depth: int):
        if entries < 1:
            raise SimulationError(f"ATT needs >= 1 entry: {entries}")
        self.capacity = entries
        self._entries: Dict[SabreId, AttEntry] = {}
        #: Bound ``dict.get`` over the live-entry map: the R2P2's
        #: per-request lookup fast path (one packet per cache block
        #: lands here, so the method-dispatch hop is worth skipping).
        self.lookup_fast = self._entries.get
        self._free_buffers: List[StreamBuffer] = [
            StreamBuffer(stream_buffer_depth) for _ in range(entries)
        ]
        self.registrations = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    def has_free_entry(self) -> bool:
        return len(self._entries) < self.capacity

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def register(
        self,
        sabre_id: SabreId,
        base_addr: int,
        total_blocks: int,
        size_bytes: int,
        now: float,
    ) -> AttEntry:
        if sabre_id in self._entries:
            raise SimulationError(f"SABRe {sabre_id} already registered")
        if not self.has_free_entry():
            raise SimulationError("ATT full; caller must queue")
        buffer = self._free_buffers.pop()
        buffer.assign(base_addr, total_blocks)
        entry = AttEntry(
            sabre_id=sabre_id,
            base_addr=base_addr,
            total_blocks=total_blocks,
            size_bytes=size_bytes,
            stream_buffer=buffer,
            registered_at=now,
        )
        self._entries[sabre_id] = entry
        self.registrations += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return entry

    def lookup(self, sabre_id: SabreId) -> Optional[AttEntry]:
        return self.lookup_fast(sabre_id)

    def free(self, entry: AttEntry) -> None:
        stored = self._entries.pop(entry.sabre_id, None)
        if stored is not entry:
            raise SimulationError(f"entry {entry.sabre_id} not active")
        entry.stream_buffer.release()
        self._free_buffers.append(entry.stream_buffer)

    def release(self) -> None:
        """Forget every live entry, in place (``lookup_fast`` is bound
        to this dict); their stream buffers are not returned."""
        self._entries.clear()

    def entries(self) -> List[AttEntry]:
        return list(self._entries.values())
