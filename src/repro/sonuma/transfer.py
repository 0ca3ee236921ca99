"""Source-side transfer state: WQ/CQ entries and transfer results.

Cores talk to the RMC through memory-mapped Work Queues and Completion
Queues (Fig. 5).  We model the queues' costs (post, pickup, CQ write,
poll) and keep per-transfer timing so experiments can report the
paper's latency breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.mem.backing import NO_CELL

#: How long the id of a crash-failed RPC/transfer is remembered so its
#: straggler replies can be dropped instead of tripping the
#: unknown-reply invariants.  Replies only straggle while already-sent
#: packets and zombie handlers on a crashed-then-recovered node drain —
#: microseconds, far below this horizon — so pruning behind it keeps
#: the bookkeeping bounded across arbitrarily long crash soaks.
STRAGGLER_HORIZON_NS = 1_000_000.0


def prune_straggler_book(
    book: Dict[int, float], now: float, limit: int = 256
) -> Dict[int, float]:
    """Shared prune for the ``id -> failure time`` straggler books kept
    by :class:`~repro.sonuma.node.SoNode` and
    :class:`~repro.sonuma.rpc.RpcEndpoint`: once past ``limit``
    entries, drop everything older than :data:`STRAGGLER_HORIZON_NS`.
    Returns the (possibly new) book."""
    if len(book) <= limit:
        return book
    horizon = now - STRAGGLER_HORIZON_NS
    return {key: t for key, t in book.items() if t >= horizon}


class OpKind(Enum):
    REMOTE_READ = "remote_read"
    REMOTE_WRITE = "remote_write"
    REMOTE_CAS = "remote_cas"
    SABRE = "sabre"


@dataclass(slots=True)
class TransferTimings:
    """Wall-clock (simulated ns) milestones of one transfer."""

    posted: float = 0.0
    pickup: float = 0.0
    first_request: float = 0.0
    last_reply: float = 0.0
    completed: float = 0.0

    @property
    def end_to_end_ns(self) -> float:
        return self.completed - self.posted


@dataclass(slots=True)
class TransferResult:
    """What the core observes in the Completion Queue entry.

    ``success`` is the SABRe atomicity field (§5.2); plain remote
    reads/writes always succeed at the transport level; for remote CAS
    it reports whether the swap happened."""

    transfer_id: int
    op: OpKind
    success: bool
    size_bytes: int
    local_addr: int
    timings: TransferTimings
    remote_version: Optional[int] = None
    cas_old_value: Optional[int] = None
    #: The destination node crashed while (or before) this transfer was
    #: in flight; the landing buffer contents are undefined and must not
    #: be consumed.  Set by the failover subsystem's abort path only.
    crashed: bool = False


@dataclass(slots=True)
class SourceTransfer:
    """RMC-internal bookkeeping for one in-flight transfer."""

    transfer_id: int
    op: OpKind
    dst_node: int
    remote_addr: int
    size_bytes: int
    local_addr: int
    total_blocks: int
    backend: int
    timings: TransferTimings = field(default_factory=TransferTimings)
    replies_received: int = 0
    validation: Optional[bool] = None
    remote_version: Optional[int] = None
    completed: bool = False
    payload: Optional[bytes] = None  # outbound data for REMOTE_WRITE
    cas_operands: Optional[Tuple[int, int]] = None  # (expected, desired)
    cas_old_value: Optional[int] = None
    cas_swapped: Optional[bool] = None
    #: The meta dict every request packet of a SABRe shares (its R2P2
    #: and RGP), set when the RGP picks the transfer up.
    request_meta: Optional[Dict[str, int]] = None
    #: The source-memory cell the landing buffer lies in, as
    #: ``PhysicalMemory._locate`` caches it, found when the first reply
    #: lands: replies of many transfers interleave, so the memory's own
    #: one-entry cache would miss on nearly every one of them.
    landing_cell: Tuple[int, int, bytearray, int] = NO_CELL
