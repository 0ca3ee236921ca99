"""soNUMA transport packets.

The original soNUMA protocol has cache-block-sized read/write requests
and replies (source unrolling, §5).  SABRes add two packet types (§5.2):
the *registration* packet that precedes a SABRe's data requests and
carries the total size, and the *validation* packet, the final
payload-free reply carrying atomicity success/failure.

Every packet is built as ``Packet(kind, src, dst, transfer_id, ...)``
at the one place that sends it: the source RMC (``sonuma/node.py``),
the R2P2 (``core/r2p2.py``) or the RPC endpoint (``sonuma/rpc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class PacketKind(Enum):
    READ_REQUEST = "read_request"
    READ_REPLY = "read_reply"
    SABRE_REGISTRATION = "sabre_registration"
    SABRE_REQUEST = "sabre_request"
    SABRE_REPLY = "sabre_reply"
    SABRE_VALIDATION = "sabre_validation"
    RPC_SEND = "rpc_send"
    RPC_REPLY = "rpc_reply"
    WRITE_REQUEST = "write_request"
    WRITE_ACK = "write_ack"
    CAS_REQUEST = "cas_request"
    CAS_REPLY = "cas_reply"


#: NI routing classes, precomputed as plain member attributes so the
#: per-packet dispatch (one of the hottest paths in the simulator) is an
#: int compare instead of a frozenset probe through Enum.__hash__.
ROUTE_REQUEST, ROUTE_REPLY, ROUTE_RPC = 0, 1, 2

for _kind, _route in (
    (PacketKind.READ_REQUEST, ROUTE_REQUEST),
    (PacketKind.SABRE_REGISTRATION, ROUTE_REQUEST),
    (PacketKind.SABRE_REQUEST, ROUTE_REQUEST),
    (PacketKind.WRITE_REQUEST, ROUTE_REQUEST),
    (PacketKind.CAS_REQUEST, ROUTE_REQUEST),
    (PacketKind.READ_REPLY, ROUTE_REPLY),
    (PacketKind.SABRE_REPLY, ROUTE_REPLY),
    (PacketKind.SABRE_VALIDATION, ROUTE_REPLY),
    (PacketKind.WRITE_ACK, ROUTE_REPLY),
    (PacketKind.CAS_REPLY, ROUTE_REPLY),
    (PacketKind.RPC_SEND, ROUTE_RPC),
    (PacketKind.RPC_REPLY, ROUTE_RPC),
):
    _kind.route = _route
del _kind, _route


@dataclass(slots=True)
class Packet:
    """One fabric packet.

    ``transfer_id`` ties the packet to a transfer; ``block_offset`` is
    the cache-block index within the transfer for unrolled requests and
    replies.  ``payload`` carries real bytes for replies (and RPCs).
    """

    kind: PacketKind
    src_node: int
    dst_node: int
    transfer_id: int
    block_offset: int = 0
    size_bytes: int = 0
    payload: Optional[bytes] = None
    meta: dict[str, Any] = field(default_factory=dict)
