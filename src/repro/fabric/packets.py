"""soNUMA transport packets.

The original soNUMA protocol has cache-block-sized read/write requests
and replies (source unrolling, §5).  SABRes add two packet types (§5.2):
the *registration* packet that precedes a SABRe's data requests and
carries the total size, and the *validation* packet, the final
payload-free reply carrying atomicity success/failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from repro.common.units import CACHE_BLOCK


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

for _kind, _route, _rep in (
    (PacketKind.READ_REQUEST, ROUTE_REQUEST, False),
    (PacketKind.SABRE_REGISTRATION, ROUTE_REQUEST, False),
    (PacketKind.SABRE_REQUEST, ROUTE_REQUEST, False),
    (PacketKind.WRITE_REQUEST, ROUTE_REQUEST, False),
    (PacketKind.CAS_REQUEST, ROUTE_REQUEST, False),
    (PacketKind.READ_REPLY, ROUTE_REPLY, True),
    (PacketKind.SABRE_REPLY, ROUTE_REPLY, True),
    (PacketKind.SABRE_VALIDATION, ROUTE_REPLY, True),
    (PacketKind.WRITE_ACK, ROUTE_REPLY, True),
    (PacketKind.CAS_REPLY, ROUTE_REPLY, True),
    (PacketKind.RPC_SEND, ROUTE_RPC, False),
    (PacketKind.RPC_REPLY, ROUTE_RPC, True),
):
    _kind.route = _route
    _kind.reply_kind = _rep
del _kind, _route, _rep


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

    def wire_bytes(self, header_bytes: int) -> int:
        """Total bytes this packet occupies on a link."""
        return header_bytes + self.size_bytes

    @property
    def is_reply(self) -> bool:
        return self.kind.reply_kind


def read_request(src: int, dst: int, transfer_id: int, block_offset: int) -> Packet:
    return Packet(
        PacketKind.READ_REQUEST, src, dst, transfer_id, block_offset, size_bytes=8
    )


def read_reply(
    src: int, dst: int, transfer_id: int, block_offset: int, payload: bytes
) -> Packet:
    return Packet(
        PacketKind.READ_REPLY,
        src,
        dst,
        transfer_id,
        block_offset,
        size_bytes=len(payload),
        payload=payload,
    )


def sabre_registration(
    src: int, dst: int, transfer_id: int, total_blocks: int
) -> Packet:
    return Packet(
        PacketKind.SABRE_REGISTRATION,
        src,
        dst,
        transfer_id,
        size_bytes=8,
        meta={"total_blocks": total_blocks},
    )


def sabre_request(src: int, dst: int, transfer_id: int, block_offset: int) -> Packet:
    return Packet(
        PacketKind.SABRE_REQUEST, src, dst, transfer_id, block_offset, size_bytes=8
    )


def sabre_reply(
    src: int, dst: int, transfer_id: int, block_offset: int, payload: bytes
) -> Packet:
    return Packet(
        PacketKind.SABRE_REPLY,
        src,
        dst,
        transfer_id,
        block_offset,
        size_bytes=len(payload),
        payload=payload,
    )


def sabre_validation(src: int, dst: int, transfer_id: int, success: bool) -> Packet:
    return Packet(
        PacketKind.SABRE_VALIDATION,
        src,
        dst,
        transfer_id,
        size_bytes=0,
        meta={"success": success},
    )


def block_payload_size(total_size: int, block_offset: int) -> int:
    """Payload bytes carried by the reply for block ``block_offset`` of a
    ``total_size``-byte transfer (the last block may be partial)."""
    remaining = total_size - block_offset * CACHE_BLOCK
    return max(0, min(CACHE_BLOCK, remaining))


def write_ack(src: int, dst: int, transfer_id: int, block_offset: int) -> Packet:
    return Packet(
        PacketKind.WRITE_ACK, src, dst, transfer_id, block_offset, size_bytes=0
    )


def cas_request(
    src: int, dst: int, transfer_id: int, addr: int, expected: int, desired: int
) -> Packet:
    """Remote compare-and-swap on a 64-bit word (cache-block atomic,
    the strongest primitive plain RDMA offers, §1)."""
    return Packet(
        PacketKind.CAS_REQUEST,
        src,
        dst,
        transfer_id,
        size_bytes=24,
        meta={"addr": addr, "expected": expected, "desired": desired},
    )


def cas_reply(
    src: int, dst: int, transfer_id: int, old_value: int, swapped: bool
) -> Packet:
    return Packet(
        PacketKind.CAS_REPLY,
        src,
        dst,
        transfer_id,
        size_bytes=8,
        meta={"old_value": old_value, "swapped": swapped},
    )
