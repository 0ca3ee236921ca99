"""A soNUMA node (SoC + RMC) and the two-node cluster of the paper.

Each node owns a 16-core chip model, physical memory, a split-NI RMC
(per-core frontends folded into fixed WQ/CQ costs; four RGP/RCP
backends and four R2P2s along the edge, Fig. 6), and a fabric
attachment.  Remote reads unroll into cache-block requests at the
source (§5); SABRes send a registration packet first and stay pinned
to one destination R2P2 (§5.1).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.atomicity.locks import ReaderWriterLockTable
from repro.common.config import ClusterConfig
from repro.common.errors import ProtocolError, SimulationError
from repro.common.units import CACHE_BLOCK, blocks_in
from repro.core.r2p2 import R2P2Engine
from repro.fabric.network import Fabric
from repro.fabric.packets import Packet, PacketKind
from repro.mem.backing import PhysicalMemory
from repro.mem.system import ChipMemorySystem
from repro.noc.mesh import Mesh
from repro.sim.engine import Event, Simulator
from repro.sim.resources import BandwidthServer
from repro.sim.stats import Counter
from repro.sonuma.transfer import (
    OpKind,
    SourceTransfer,
    TransferResult,
    prune_straggler_book,
)

#: How long the source RMC takes to fail a WQ entry whose destination's
#: lease already expired (a local table lookup plus the CQ round trip —
#: no packet ever leaves the node).
CRASH_NOTICE_NS = 40.0

#: NI dispatch uses the precomputed ``PacketKind.route`` ints (see
#: :mod:`repro.fabric.packets`) instead of frozenset probes through
#: ``Enum.__hash__`` — dispatch is one of the hottest paths here.


class SoNode:
    """One rack node: chip + memory + RMC + NI."""

    __slots__ = ("sim", "node_id", "cfg", "fabric", "mesh", "phys", "chip", "counters", "lock_table", "r2p2s", "_tid", "_transfers", "_completions", "_aborted", "_rgp", "_rcp", "_rmc_cycle", "_rcp_service", "_rpc_handler", "_alive_vec", "rpc_endpoint")

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        cluster_cfg: ClusterConfig,
        fabric: Fabric,
    ):
        self.sim = sim
        self.node_id = node_id
        self.cfg = cluster_cfg.node
        self.fabric = fabric
        self.phys = PhysicalMemory(base=0x100000 * (node_id + 1))
        self.mesh = Mesh(self.cfg.noc)
        self.chip = ChipMemorySystem(
            sim, self.cfg, self.mesh, self.phys, name=f"node{node_id}"
        )
        self.lock_table = ReaderWriterLockTable()
        self.counters = Counter()

        backends = self.cfg.rmc.backends
        self.r2p2s = [
            R2P2Engine(
                sim,
                self.cfg,
                self.chip,
                node_id,
                index=i,
                tile=self.mesh.rmc_tile(i),
                # Late-binding on purpose: instrumentation (and tests)
                # may wrap fabric.send after construction.
                send_packet=self._send,
                lock_table=self.lock_table,
                counters=self.counters,
            )
            for i in range(backends)
        ]
        cycle = self.cfg.rmc.cycle_ns
        self._rgp = [
            BandwidthServer(sim, 1.0, f"n{node_id}.rgp[{i}]")
            for i in range(backends)
        ]
        self._rcp = [
            BandwidthServer(sim, 1.0, f"n{node_id}.rcp[{i}]")
            for i in range(backends)
        ]
        self._rmc_cycle = cycle
        # Reply pipeline service time, hoisted (same division
        # BandwidthServer.request would perform, bit-for-bit).
        self._rcp_service = cycle / self._rcp[0].rate
        self._transfers: Dict[int, SourceTransfer] = {}
        self._completions: Dict[int, Event] = {}
        #: Transfer id -> abort time, for transfers failed by
        #: :meth:`fail_transfers_to`; replies for them that were
        #: already on the wire at crash time are dropped silently
        #: instead of tripping the unknown-reply invariant.  Pruned by
        #: :func:`prune_straggler_book` so long crash soaks cannot
        #: grow it without bound.
        self._aborted: Dict[int, float] = {}
        self._tid = itertools.count(node_id << 32)
        self._rpc_handler = None
        #: Back-pointer set by RpcEndpoint.__init__ — the fault
        #: injector's handle on this node's RPC plane.
        self.rpc_endpoint = None
        # The fabric's aliveness vector mutates in place, so holding a
        # direct reference keeps the per-packet dead-NI check one list
        # index instead of two attribute hops and a method call.
        self._alive_vec = fabric._alive
        fabric.attach(node_id, self._handle_packet)

    @property
    def alive(self) -> bool:
        """This node's membership as the fabric sees it (lease view)."""
        return self.fabric.alive(self.node_id)

    # ------------------------------------------------------------------
    # memory helpers
    # ------------------------------------------------------------------
    def alloc_buffer(self, size: int) -> int:
        """Allocate a node-local buffer (e.g. a reader's landing zone)."""
        return self.phys.allocate(max(size, CACHE_BLOCK), align=CACHE_BLOCK)

    # ------------------------------------------------------------------
    # one-sided operations (core-facing API)
    # ------------------------------------------------------------------
    def remote_read(
        self, dst_node: int, remote_addr: int, size: int, local_addr: int
    ) -> Event:
        """Post a one-sided remote read; the returned event triggers
        with a :class:`TransferResult` when the CQ entry is consumed."""
        return self._post(OpKind.REMOTE_READ, dst_node, remote_addr, size, local_addr)

    def sabre_read(
        self, dst_node: int, remote_addr: int, size: int, local_addr: int
    ) -> Event:
        """Post a SABRe (single-site atomic bulk read)."""
        return self._post(OpKind.SABRE, dst_node, remote_addr, size, local_addr)

    def remote_write(self, dst_node: int, remote_addr: int, data: bytes) -> Event:
        """Post a one-sided remote write (cache-block atomicity only)."""
        return self._post(
            OpKind.REMOTE_WRITE, dst_node, remote_addr, len(data), 0, payload=data
        )

    def remote_cas(
        self, dst_node: int, remote_addr: int, expected: int, desired: int
    ) -> Event:
        """Post a remote compare-and-swap on one 64-bit word — the
        cache-block-sized atomic RDMA offers (§1).  The completion's
        ``success`` reports whether the swap happened and
        ``cas_old_value`` the observed word."""
        return self._post(
            OpKind.REMOTE_CAS, dst_node, remote_addr, 8, 0,
            cas_operands=(expected, desired),
        )

    def _post(
        self,
        op: OpKind,
        dst_node: int,
        remote_addr: int,
        size: int,
        local_addr: int,
        payload: Optional[bytes] = None,
        cas_operands: Optional[Tuple[int, int]] = None,
    ) -> Event:
        if size <= 0:
            raise SimulationError(f"transfer size must be positive: {size}")
        if dst_node == self.node_id:
            raise SimulationError("one-sided ops target remote nodes")
        rmc = self.cfg.rmc
        tid = next(self._tid)
        backend = tid % rmc.backends
        transfer = SourceTransfer(
            transfer_id=tid,
            op=op,
            dst_node=dst_node,
            remote_addr=remote_addr,
            size_bytes=size,
            local_addr=local_addr,
            total_blocks=blocks_in(size),
            backend=backend,
            payload=payload,
            cas_operands=cas_operands,
        )
        transfer.timings.posted = self.sim.now
        self._transfers[tid] = transfer
        completion = self.sim.event()
        self._completions[tid] = completion
        fabric = self.fabric
        if not fabric.observed_alive(self.node_id, dst_node):
            # In the poster's (possibly skewed) lease view the target
            # is down; a drop window between the pair refuses the post
            # the same way — a one-sided read whose reply cannot return
            # is as failed as one that cannot be sent.
            return self._fail_transfer(transfer)
        if fabric.link_severed(self.node_id, dst_node):
            fabric.partition_refusals += 1
            return self._fail_transfer(transfer)
        pickup_delay = rmc.wq_post_ns + rmc.wq_pickup_ns
        self.sim.call_later(pickup_delay, self._unroll, transfer)
        return completion

    # ------------------------------------------------------------------
    # failover: transfer failure paths
    # ------------------------------------------------------------------
    def _fail_transfer(self, transfer: SourceTransfer) -> Event:
        """Complete ``transfer`` as crash-failed: ``success=False`` and
        ``crashed=True`` in the CQ entry, delivered after the local
        lease-table lookup.  Used both for posts targeting an already
        dead node and for in-flight transfers aborted at crash time."""
        transfer.completed = True
        completion = self._completions.pop(transfer.transfer_id)
        del self._transfers[transfer.transfer_id]

        def deliver() -> None:
            transfer.timings.completed = self.sim.now
            completion.succeed(
                TransferResult(
                    transfer_id=transfer.transfer_id,
                    op=transfer.op,
                    success=False,
                    size_bytes=transfer.size_bytes,
                    local_addr=transfer.local_addr,
                    timings=transfer.timings,
                    crashed=True,
                )
            )

        self.sim.call_later(CRASH_NOTICE_NS, deliver)
        return completion

    def fail_transfers_to(self, dst_node: int) -> int:
        """Abort every in-flight transfer targeting ``dst_node`` (its
        lease expired).  Replies already on the wire for these transfers
        are dropped on arrival.  Returns how many were aborted."""
        now = self.sim.now
        self._aborted = prune_straggler_book(self._aborted, now)
        failed = 0
        for tid, transfer in list(self._transfers.items()):
            if transfer.dst_node == dst_node and not transfer.completed:
                self._aborted[tid] = now
                self._fail_transfer(transfer)
                failed += 1
        return failed

    # ------------------------------------------------------------------
    # RGP: source unrolling (§5)
    # ------------------------------------------------------------------
    def _unroll(self, transfer: SourceTransfer) -> None:
        """Unroll one WQ entry: send its registration packet (SABRe
        only), then schedule one :meth:`_send_request` per cache block
        (one ``call_at``) at the time the RGP sends it.  The request
        packet is built when its slot fires, so the RGP's backlog
        holds ``(transfer, offset)`` pairs, not packets.

        The RGP is a private serial server, so each send time is pure
        arithmetic: the float operations ``BandwidthServer.request``
        performs, inlined, with the server written back once."""
        sim = self.sim
        now = sim._now
        transfer.timings.pickup = now
        rgp = self._rgp[transfer.backend]
        send_request = self._send_request
        tid = transfer.transfer_id
        dst = transfer.dst_node
        op = transfer.op
        rate = rgp.rate
        next_free = rgp._next_free

        if op is OpKind.SABRE:
            r2p2 = tid % self.cfg.rmc.backends
            reg = Packet(
                PacketKind.SABRE_REGISTRATION, self.node_id, dst, tid,
                size_bytes=8,
                meta={
                    "total_blocks": transfer.total_blocks,
                    "addr": transfer.remote_addr,
                    "size": transfer.size_bytes,
                    "r2p2": r2p2,
                    "rgp": transfer.backend,
                },
            )
            start = next_free if next_free > now else now
            service = self._rmc_cycle / rate
            next_free = start + service
            sim.call_at(next_free, self.fabric.send, reg)
            # A SABRe stays pinned to one R2P2 (§5.1), so its whole
            # request run shares one meta dict (nobody mutates it).
            transfer.request_meta = {"r2p2": r2p2, "rgp": transfer.backend}

        if op is OpKind.REMOTE_CAS:
            req_cost = self._rmc_cycle  # one word, built in one cycle
        else:
            req_cost = self._rmc_cycle * self.cfg.rmc.rgp_request_cycles
        service = req_cost / rate
        for offset in range(transfer.total_blocks):
            start = next_free if next_free > now else now
            next_free = start + service
            if offset == 0:
                transfer.timings.first_request = (
                    next_free if next_free > now else now
                )
            sim.call_at(next_free, send_request, transfer, offset)

        rgp._next_free = next_free

    def _send_request(self, transfer: SourceTransfer, offset: int) -> None:
        """Build the request packet for block ``offset`` of ``transfer``
        as the RGP sends it, and put it on the fabric."""
        op = transfer.op
        dst = transfer.dst_node
        tid = transfer.transfer_id
        dest_backends = self.cfg.rmc.backends
        if op is OpKind.SABRE:
            pkt = Packet(
                PacketKind.SABRE_REQUEST, self.node_id, dst, tid,
                offset, size_bytes=8, meta=transfer.request_meta,
            )
        elif op is OpKind.REMOTE_WRITE:
            addr = transfer.remote_addr + offset * CACHE_BLOCK
            lo = offset * CACHE_BLOCK
            hi = min(len(transfer.payload), lo + CACHE_BLOCK)
            payload = transfer.payload[lo:hi]
            pkt = Packet(
                PacketKind.WRITE_REQUEST, self.node_id, dst, tid,
                offset,
                size_bytes=len(payload) + 8,
                payload=payload,
                meta={
                    "addr": addr,
                    "r2p2": (addr // CACHE_BLOCK) % dest_backends,
                },
            )
        elif op is OpKind.REMOTE_CAS:
            addr = transfer.remote_addr
            expected, desired = transfer.cas_operands
            pkt = Packet(
                PacketKind.CAS_REQUEST, self.node_id, dst, tid,
                size_bytes=24,
                meta={
                    "addr": addr,
                    "expected": expected,
                    "desired": desired,
                    "r2p2": (addr // CACHE_BLOCK) % dest_backends,
                },
            )
        else:
            addr = transfer.remote_addr + offset * CACHE_BLOCK
            size = transfer.size_bytes - offset * CACHE_BLOCK
            if size > CACHE_BLOCK:
                size = CACHE_BLOCK
            pkt = Packet(
                PacketKind.READ_REQUEST, self.node_id, dst, tid,
                offset,
                size_bytes=8,
                meta={
                    "addr": addr,
                    "size": size,
                    # Remote reads balance across R2P2s per block
                    # (§7.1): steer by block *address*.
                    "r2p2": (addr // CACHE_BLOCK) % dest_backends,
                },
            )
        self.fabric.send(pkt)

    # ------------------------------------------------------------------
    # NI dispatch
    # ------------------------------------------------------------------
    def _send(self, pkt: Packet) -> None:
        self.fabric.send(pkt)

    def _handle_packet(self, pkt: Packet) -> None:
        if not self._alive_vec[self.node_id]:
            # Dead NI: packets that were already in flight when the
            # node crashed arrive at nothing and vanish.
            return
        kind = pkt.kind
        if kind is PacketKind.SABRE_REQUEST:
            # Most frequent kind: skip both dispatch tables.
            self.r2p2s[pkt.meta.get("r2p2", 0)]._handle_sabre_request(pkt)
            return
        if kind is PacketKind.SABRE_REPLY:
            self._on_reply(pkt)
            return
        route = kind.route
        if route == 0:  # ROUTE_REQUEST
            self.r2p2s[pkt.meta.get("r2p2", 0)].handle_packet(pkt)
        elif route == 1:  # ROUTE_REPLY
            self._on_reply(pkt)
        else:  # ROUTE_RPC
            if self._rpc_handler is None:
                raise ProtocolError(f"node {self.node_id} has no RPC endpoint")
            self._rpc_handler(pkt)

    def attach_rpc(self, handler) -> None:
        self._rpc_handler = handler

    # ------------------------------------------------------------------
    # RCP: reply processing and completion (§5.2)
    # ------------------------------------------------------------------
    def _on_reply(self, pkt: Packet) -> None:
        """Account one reply at its arrival: reserve its slot in the
        backend's RCP, then do the bookkeeping the RCP performs by the
        time the reply leaves it.  The RCP is a private FIFO and
        nothing reads a transfer's buffer or counters before its CQ
        entry is delivered, so only the reply that completes the
        transfer — the last one out — needs an event at its exit."""
        transfer = self._transfers.get(pkt.transfer_id)
        if transfer is None or transfer.completed:
            if pkt.transfer_id in self._aborted:
                # A reply that was on the wire when its transfer was
                # crash-aborted: drop it (the CQ entry already failed).
                return
            raise ProtocolError(
                f"reply for unknown/completed transfer {pkt.transfer_id}"
            )
        # BandwidthServer.request inlined (once per reply packet).
        rcp = self._rcp[transfer.backend]
        sim = self.sim
        now = start = sim._now
        next_free = rcp._next_free
        if next_free > start:
            start = next_free
        service = self._rcp_service
        next_free = start + service
        rcp._next_free = next_free
        # The clock reading at the reply's RCP exit: call_at's
        # arithmetic, so the value is the one an event there would see.
        exit_at = now + (next_free - now)
        kind = pkt.kind
        if kind is PacketKind.SABRE_REPLY or kind is PacketKind.READ_REPLY:
            # Hot path first: the unrolled data replies.
            payload = pkt.payload
            if payload is not None and pkt.size_bytes:
                # PhysicalMemory.write's cell fast path, inlined over
                # the transfer's own cell.
                addr = transfer.local_addr + pkt.block_offset * CACHE_BLOCK
                size = len(payload)
                lo, hi, buf, origin = transfer.landing_cell
                if lo <= addr and addr + size <= hi:
                    off = addr - origin
                    buf[off : off + size] = payload
                else:
                    phys = self.phys
                    phys.write(addr, payload)
                    transfer.landing_cell = phys._last
            transfer.replies_received += 1
            transfer.timings.last_reply = exit_at
        elif kind is PacketKind.SABRE_VALIDATION:
            transfer.validation = pkt.meta["success"]
            transfer.remote_version = pkt.meta.get("version")
        elif kind is PacketKind.CAS_REPLY:
            transfer.cas_old_value = pkt.meta["old_value"]
            transfer.cas_swapped = pkt.meta["swapped"]
            transfer.replies_received += 1
            transfer.timings.last_reply = exit_at
        else:  # WRITE_ACK
            transfer.replies_received += 1
            transfer.timings.last_reply = exit_at
        # transfer.done inlined (property call per reply adds up).
        if transfer.replies_received >= transfer.total_blocks and (
            transfer.op is not OpKind.SABRE or transfer.validation is not None
        ):
            sim.call_at(next_free, self._rcp_exit, transfer)

    def _rcp_exit(self, transfer: SourceTransfer) -> None:
        """The completing reply leaves the RCP."""
        if not transfer.completed:
            # Else crash-aborted while that reply sat in the pipeline:
            # the CQ entry already failed.
            self._complete(transfer)

    def _complete(self, transfer: SourceTransfer) -> None:
        transfer.completed = True
        rmc = self.cfg.rmc
        delay = rmc.cq_write_ns + rmc.cq_poll_ns

        def deliver() -> None:
            transfer.timings.completed = self.sim.now
            if transfer.op is OpKind.SABRE:
                success = bool(transfer.validation)
            elif transfer.op is OpKind.REMOTE_CAS:
                success = bool(transfer.cas_swapped)
            else:
                success = True
            result = TransferResult(
                transfer_id=transfer.transfer_id,
                op=transfer.op,
                success=success,
                size_bytes=transfer.size_bytes,
                local_addr=transfer.local_addr,
                timings=transfer.timings,
                remote_version=transfer.remote_version,
                cas_old_value=transfer.cas_old_value,
            )
            del self._transfers[transfer.transfer_id]
            self._completions.pop(transfer.transfer_id).succeed(result)

        self.sim.call_later(delay, deliver)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def read_local(self, addr: int, size: int) -> bytes:
        return self.phys.read(addr, size)

    @property
    def in_flight(self) -> int:
        return len(self._transfers)

    def release(self) -> None:
        """Empty, in place, everything here whose size grew with the
        run: memory, the chip's tables, the R2P2s' SABRe state, the
        transfer books and the RPC endpoint's call tables.  Counters
        stay readable; memory reads as unmapped."""
        self.phys.release()
        self.chip.release()
        for r2p2 in self.r2p2s:
            r2p2.release()
        self._transfers.clear()
        self._completions.clear()
        self._aborted.clear()
        if self.rpc_endpoint is not None:
            self.rpc_endpoint.release()


class Cluster:
    """A soNUMA rack: N nodes on a lossless fabric (paper: N=2).

    Whoever builds a rack closes it when its results are out
    (:meth:`close`, or ``with Cluster(cfg) as cluster:``): a rack is
    cyclic garbage the moment it is dropped, and everything it held —
    the object stores' bytes first — would otherwise stay allocated
    until the next full collection."""

    def __init__(self, cfg: Optional[ClusterConfig] = None):
        self.cfg = cfg or ClusterConfig()
        self.cfg.validate()
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, self.cfg.fabric, self.cfg.nodes)
        self.nodes = [
            SoNode(self.sim, i, self.cfg, self.fabric)
            for i in range(self.cfg.nodes)
        ]

    def node(self, node_id: int) -> SoNode:
        return self.nodes[node_id]

    def run(self, until: float = float("inf")) -> float:
        return self.sim.run(until)

    def close(self) -> None:
        """End of life, idempotent: the pending callbacks are dropped
        and every node's run-sized state is emptied in place.  A later
        :meth:`run` raises :class:`SimulationError` and a memory access
        the unmapped-address error; ``sim.now``, the event counts and
        the counters stay readable."""
        self.sim.close()
        for node in self.nodes:
            node.release()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
