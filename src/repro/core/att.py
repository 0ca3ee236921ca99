"""Active Transfers Table (§4.2, Fig. 4).

An ATT entry represents one SABRe during its lifetime: base address,
size, the soNUMA request counter (§5.1), the issue counter, the
speculation bit that marks the window of vulnerability, the version
field recorded when the object's header is first read, and the
pending-validate flag raised by ambiguous base-block invalidations.

The paper's stream buffer (§4.1, Fig. 3: a base tag, a length and a
bitvector per SABRe) is modelled by two things: the entry's
``window``, the number of blocks the unroll stage may issue while the
window of vulnerability is open, and the per-block snoop
subscriptions the R2P2 holds on the chip's coherence directory, which
do the address matching the bitvector's subtractor does in hardware.
Its SRAM cost is sized in :class:`~repro.common.config.SabreConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.units import CACHE_BLOCK
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
    #: Blocks issuable during the window of vulnerability: the stream
    #: buffer's depth, or the whole object if it is shorter (§4.1).
    window: int

    req_counter: int = 0  # request packets received (§5.1 folding)
    issue_count: int = 0  # loads issued (once aborted: offsets flushed)
    replied_bits: int = 0  # replies sent to the source (bitvector)
    replied_count: int = 0

    version: Optional[int] = None  # ATT version field (§4.2)
    speculative: bool = True  # set during the window of vulnerability
    pending_validate: bool = False  # base-block invalidation seen
    aborted: bool = False
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

    def block_addr(self, offset: int) -> int:
        return self.base_addr + offset * CACHE_BLOCK


class ActiveTransfersTable:
    """Fixed-size table of ATT entries, one stream buffer's window each.

    When every entry is busy, new registrations queue (the R2P2 simply
    exerts backpressure; §4.1's sizing argument makes this rare for the
    paper's configuration)."""

    def __init__(self, entries: int, stream_buffer_depth: int):
        if entries < 1:
            raise SimulationError(f"ATT needs >= 1 entry: {entries}")
        if stream_buffer_depth < 1:
            raise SimulationError(
                f"stream buffer depth must be >= 1: {stream_buffer_depth}"
            )
        self.capacity = entries
        self.depth = stream_buffer_depth
        self._entries: Dict[SabreId, AttEntry] = {}
        #: Bound ``dict.get`` over the live-entry map: the R2P2's
        #: per-request lookup (one packet per cache block lands here,
        #: so the method-dispatch hop is worth skipping).
        self.lookup: Callable[[SabreId], Optional[AttEntry]] = self._entries.get

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
    ) -> AttEntry:
        if sabre_id in self._entries:
            raise SimulationError(f"SABRe {sabre_id} already registered")
        if not self.has_free_entry():
            raise SimulationError("ATT full; caller must queue")
        if total_blocks < 1:
            raise SimulationError(f"SABRe needs >= 1 block: {total_blocks}")
        entry = AttEntry(
            sabre_id=sabre_id,
            base_addr=base_addr,
            total_blocks=total_blocks,
            size_bytes=size_bytes,
            window=min(self.depth, total_blocks),
        )
        self._entries[sabre_id] = entry
        return entry

    def free(self, entry: AttEntry) -> None:
        stored = self._entries.pop(entry.sabre_id, None)
        if stored is not entry:
            raise SimulationError(f"entry {entry.sabre_id} not active")
        # The snoop closure holds its entry: dropping it breaks the
        # cycle, so reference counting frees a finished entry.
        entry.snoop_cb = None

    def release(self) -> None:
        """Forget every live entry, in place (``lookup`` is bound to
        this dict), its snoop closure dropped as ``free`` does."""
        for entry in self._entries.values():
            entry.snoop_cb = None
        self._entries.clear()

    def entries(self) -> List[AttEntry]:
        return list(self._entries.values())
