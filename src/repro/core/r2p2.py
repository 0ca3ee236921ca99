"""The R2P2: soNUMA's Remote Request Processing Pipeline enhanced with
LightSABRes (§4.2, Fig. 4; soNUMA adaptation §5.1).

One engine instance models one R2P2 backend at the destination chip
edge.  It serves stateless cache-block remote reads (original soNUMA)
and stateful SABRes (ATT + stream buffers), implementing four
concurrency-control variants selected by ``SabreMode``:

* ``SPECULATIVE`` — LightSABRes proper: the version read overlaps the
  data reads; the stream buffer snoops coherence invalidations during
  the window of vulnerability; ambiguous base-block invalidations are
  resolved by the validate stage.
* ``NO_SPECULATION`` — serialized read-version-then-data (§3.2).
* ``LOCKING`` — destination-side shared reader locks (§3.2).
* ``NAIVE_UNSAFE`` — Fig. 2's broken overlap (no snooping); kept to
  demonstrate the race it admits.

Protocol invariants (§5.1): every received request packet eventually
gets exactly one reply packet, even after an abort (junk payload), and
a final payload-free validation packet reports atomicity success.
"""

from __future__ import annotations

from typing import Callable, Deque, Dict, Optional, Set
from collections import deque

from repro.atomicity.locks import ReaderWriterLockTable, is_locked
from repro.common.config import NodeConfig, SabreMode
from repro.common.errors import ProtocolError
from repro.common.units import CACHE_BLOCK
from repro.core.att import ActiveTransfersTable, AttEntry, SabreId
from repro.fabric.packets import Packet, PacketKind
from repro.mem.system import ChipMemorySystem, InvalidationCause
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthServer
from repro.sim.stats import Counter

#: Callback the node provides to put a packet on the fabric.
SendPacket = Callable[[Packet], None]


class R2P2Engine:
    """One LightSABRes-enhanced R2P2 backend."""

    __slots__ = ("sim", "cfg", "chip", "node_id", "index", "tile", "send_packet", "lock_table", "counters", "mode", "att", "_pending_registrations", "_queued_sabres", "_pending_requests", "_cycle", "_block_cost", "issue_server", "reply_server", "_version_offset", "_att_lookup", "_issue_service", "_reply_service", "_phys")

    def __init__(
        self,
        sim: Simulator,
        cfg: NodeConfig,
        chip: ChipMemorySystem,
        node_id: int,
        index: int,
        tile: int,
        send_packet: SendPacket,
        lock_table: Optional[ReaderWriterLockTable] = None,
        counters: Optional[Counter] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.chip = chip
        self.node_id = node_id
        self.index = index
        self.tile = tile
        self.send_packet = send_packet
        self.lock_table = lock_table or ReaderWriterLockTable()
        self.counters = counters or Counter()

        sabre = cfg.sabre
        self.mode = sabre.mode
        self.att = ActiveTransfersTable(
            sabre.stream_buffers, sabre.stream_buffer_depth
        )
        self._pending_registrations: Deque[Packet] = deque()
        # Whose registrations those are (the per-request membership test).
        self._queued_sabres: Set[SabreId] = set()
        # Data requests that arrived while their registration is still
        # queued behind ATT backpressure (counted, replayed on register).
        self._pending_requests: Dict[SabreId, int] = {}
        # Fig. 4 pipeline stages modeled as two serial servers: the
        # unroll/memory-access path and the send-reply path, each
        # sustaining one block per RMC cycle (Table 2: 1 GHz).
        self._cycle = cfg.rmc.cycle_ns
        self._block_cost = cfg.rmc.cycle_ns * cfg.rmc.r2p2_block_cycles
        self.issue_server = BandwidthServer(sim, 1.0, f"r2p2[{index}].issue")
        self.reply_server = BandwidthServer(sim, 1.0, f"r2p2[{index}].reply")
        self._version_offset = 0  # driver-registered header offset (§4.2)
        self._att_lookup = self.att.lookup
        self._phys = chip.phys
        # Per-block service times are loop invariants of the whole run:
        # the divisions below reproduce BandwidthServer.request's
        # arithmetic bit-for-bit.
        self._issue_service = self._block_cost / self.issue_server.rate
        self._reply_service = self._cycle / self.reply_server.rate

    def release(self) -> None:
        """Drop every SABRe this pipeline knows of: the ATT entries and
        the registrations and requests queued behind them, and the send
        hook (a bound method of the node that holds this pipeline)."""
        self.att.release()
        self.send_packet = None
        self._pending_registrations.clear()
        self._queued_sabres.clear()
        self._pending_requests.clear()

    # ------------------------------------------------------------------
    # packet entry point (called by the node's NI dispatch)
    # ------------------------------------------------------------------
    def handle_packet(self, pkt: Packet) -> None:
        # Ordered by arrival frequency: unrolled SABRe data requests
        # dominate, then stateless reads.
        kind = pkt.kind
        if kind is PacketKind.SABRE_REQUEST:
            self._handle_sabre_request(pkt)
        elif kind is PacketKind.READ_REQUEST:
            self._handle_read_request(pkt)
        elif kind is PacketKind.SABRE_REGISTRATION:
            self._handle_registration(pkt)
        elif kind is PacketKind.WRITE_REQUEST:
            self._handle_write_request(pkt)
        elif kind is PacketKind.CAS_REQUEST:
            self._handle_cas_request(pkt)
        else:
            raise ProtocolError(f"R2P2 cannot service {pkt.kind}")

    # ------------------------------------------------------------------
    # stateless remote reads (original soNUMA RRPP)
    # ------------------------------------------------------------------
    def _handle_read_request(self, pkt: Packet) -> None:
        t_issue = self.issue_server.request(self._block_cost)
        self.sim.call_at(t_issue, self._start_remote_read, pkt)

    def _start_remote_read(self, pkt: Packet) -> None:
        done, _tier = self.chip.read_block(self.tile, pkt.meta["addr"])
        self.sim.call_at(done, self._finish_remote_read, pkt)

    def _finish_remote_read(self, pkt: Packet) -> None:
        meta = pkt.meta
        payload = self._phys.read(meta["addr"], meta["size"])
        t_reply = self.reply_server.request(self._cycle)
        reply = Packet(
            PacketKind.READ_REPLY,
            self.node_id,
            pkt.src_node,
            pkt.transfer_id,
            pkt.block_offset,
            size_bytes=len(payload),
            payload=payload,
        )
        self.sim.call_at(t_reply, self.send_packet, reply)

    # ------------------------------------------------------------------
    # stateless one-sided writes and remote CAS (original soNUMA/RDMA
    # primitives: cache-block-sized atomicity only, §1)
    # ------------------------------------------------------------------
    def _handle_write_request(self, pkt: Packet) -> None:
        addr = pkt.meta["addr"]
        payload = pkt.payload or b""
        t_issue = self.issue_server.request(self._block_cost)

        def perform() -> None:
            # The NI writes through the coherence domain: subscribers
            # (e.g. in-flight SABRes over this range) get invalidated.
            latency = self.chip.write_block(self._agent_core(), addr, payload)
            ack = Packet(
                PacketKind.WRITE_ACK,
                self.node_id,
                pkt.src_node,
                pkt.transfer_id,
                pkt.block_offset,
            )
            t_reply = self.reply_server.request(self._cycle)
            self.sim.call_later(
                max(latency, t_reply - self.sim.now),
                lambda: self.send_packet(ack),
            )

        self.sim.call_at(t_issue, perform)

    def _handle_cas_request(self, pkt: Packet) -> None:
        addr = pkt.meta["addr"]
        expected = pkt.meta["expected"]
        desired = pkt.meta["desired"]
        t_issue = self.issue_server.request(self._block_cost)

        def perform() -> None:
            done, _tier = self.chip.read_block(self.tile, addr)
            self.sim.call_at(done, decide)

        def decide() -> None:
            old = self.chip.phys.read_u64(addr)
            swapped = old == expected
            if swapped:
                word = (desired & (2**64 - 1)).to_bytes(8, "little")
                self.chip.write_block(self._agent_core(), addr, word)
            reply = Packet(
                PacketKind.CAS_REPLY,
                self.node_id,
                pkt.src_node,
                pkt.transfer_id,
                size_bytes=8,
                meta={"old_value": old, "swapped": swapped},
            )
            t_reply = self.reply_server.request(self._cycle)
            self.sim.call_at(t_reply, self.send_packet, reply)

        self.sim.call_at(t_issue, perform)

    def _agent_core(self) -> int:
        """Pseudo core id for NI-originated stores (keeps the directory's
        ownership tracking distinct from real cores)."""
        return self.cfg.cores.count + self.index

    # ------------------------------------------------------------------
    # SABRe registration (§5.1)
    # ------------------------------------------------------------------
    def _handle_registration(self, pkt: Packet) -> None:
        self.counters.add("sabre_registrations")
        if not self.att.has_free_entry():
            self.counters.add("att_backpressure")
            self._pending_registrations.append(pkt)
            self._queued_sabres.add(
                (pkt.src_node, pkt.meta.get("rgp", 0), pkt.transfer_id)
            )
            return
        self._register(pkt)

    def _register(self, pkt: Packet) -> None:
        sid: SabreId = (pkt.src_node, pkt.meta.get("rgp", 0), pkt.transfer_id)
        self._queued_sabres.discard(sid)
        entry = self.att.register(
            sid,
            base_addr=pkt.meta["addr"],
            total_blocks=pkt.meta["total_blocks"],
            size_bytes=pkt.meta["size"],
        )
        entry.snoop_cb = self._make_snoop(entry)
        entry.req_counter = self._pending_requests.pop(sid, 0)
        if self.mode is SabreMode.LOCKING:
            entry.speculative = False
            self._acquire_lock(entry)
        elif self.mode is SabreMode.NAIVE_UNSAFE:
            entry.speculative = False  # no window tracking at all
        self._pump(entry)

    def _handle_sabre_request(self, pkt: Packet) -> None:
        sid: SabreId = (pkt.src_node, pkt.meta.get("rgp", 0), pkt.transfer_id)
        entry = self._att_lookup(sid)
        if entry is None:
            if sid in self._queued_sabres:
                self._pending_requests[sid] = (
                    self._pending_requests.get(sid, 0) + 1
                )
                return
            raise ProtocolError(
                f"SABRe request for unknown transfer {sid}; "
                "registration must precede data requests"
            )
        entry.req_counter += 1
        if entry.aborted:
            self._flush_junk(entry)
            self._maybe_finish(entry)
        else:
            self._pump(entry)

    # ------------------------------------------------------------------
    # unroll stage (§4.2): issue loads while conditions hold
    # ------------------------------------------------------------------
    def _pump(self, entry: AttEntry) -> None:
        """Issue loads while conditions hold, one ``call_at`` per block.

        ``_may_issue`` is the single authority over issue eligibility
        and stall accounting, consulted once per block; a run stops at
        the first block it refuses.  Each block is timed by the
        (private, serial) issue server's arithmetic, inlined."""
        if entry.aborted or entry.finished:
            return
        total = entry.total_blocks
        req = entry.req_counter
        limit = total if total < req else req
        mode = self.mode
        spec = mode is SabreMode.SPECULATIVE
        snoops = spec or mode is SabreMode.NO_SPECULATION
        sim = self.sim
        now = sim._now
        chip = self.chip
        start_read = self._start_read
        server = self.issue_server
        service = self._issue_service
        base = entry.base_addr
        epoch = entry.epoch
        while entry.issue_count < limit and self._may_issue(entry):
            offset = entry.issue_count
            addr = base + offset * CACHE_BLOCK
            entry.issue_count = offset + 1
            if snoops and ((spec and entry.speculative) or offset == 0):
                chip.subscribe(addr, entry.snoop_cb)
                entry.subscribed_blocks.append(addr)
            # issue_server.request inlined (once per issued block).
            next_free = server._next_free
            if next_free < now:
                next_free = now
            next_free += service
            server._next_free = next_free
            sim.call_at(next_free, start_read, entry, addr, offset, epoch)

    def _may_issue(self, entry: AttEntry) -> bool:
        offset = entry.issue_count
        if self.mode is SabreMode.NO_SPECULATION:
            # Serialized: the version must be read before any data.
            return offset == 0 or not entry.speculative
        if self.mode is SabreMode.LOCKING:
            return entry.lock_held
        if self.mode is SabreMode.NAIVE_UNSAFE:
            return True
        # SPECULATIVE: during the window of vulnerability the issue is
        # bounded by the stream buffer depth and must not cross a page
        # boundary (§4.1); afterwards both limits disappear.
        if not entry.speculative:
            return True
        if offset >= entry.window:
            self.counters.add("stream_buffer_stalls")
            return False
        page = self.cfg.page_bytes
        if entry.block_addr(offset) // page != entry.base_addr // page:
            self.counters.add("page_boundary_stalls")
            return False
        return True

    def _start_read(
        self, entry: AttEntry, addr: int, offset: int, epoch: int
    ) -> None:
        if entry.finished or entry.epoch != epoch:
            return
        done, _tier = self.chip.read_block(self.tile, addr)
        self.sim.call_at(done, self._on_mem_reply, entry, offset, epoch)

    # ------------------------------------------------------------------
    # memory replies
    # ------------------------------------------------------------------
    def _on_mem_reply(self, entry: AttEntry, offset: int, epoch: int = 0) -> None:
        if entry.finished or entry.epoch != epoch:
            return  # stale reply from before a hardware retry: squash
        if entry.aborted:
            self._reply_data(entry, offset, junk=True)
            self._maybe_finish(entry)
            return
        if offset == 0 and self.mode is not SabreMode.LOCKING:
            epoch_before = entry.epoch
            self._consume_version(entry)
            if entry.epoch != epoch_before:
                return  # hardware retry restarted the SABRe
            if entry.aborted:
                self._reply_data(entry, offset, junk=True)
                self._maybe_finish(entry)
                return
        self._reply_data(entry, offset)
        self._maybe_finish(entry)

    def _consume_version(self, entry: AttEntry) -> None:
        # Through the entry's cell, like _reply_data: whichever of the
        # two comes first for a SABRe does its one memory lookup.
        addr = entry.base_addr + self._version_offset
        lo, hi, buf, origin = entry.cell
        if lo <= addr and addr + 8 <= hi:
            off = addr - origin
            version = int.from_bytes(buf[off : off + 8], "little")
        else:
            phys = self._phys
            version = phys.read_u64(addr)
            entry.cell = phys._last
        if self.mode is not SabreMode.NAIVE_UNSAFE and is_locked(version):
            self._abort(entry, "locked_version")
            return
        entry.version = version
        if entry.speculative:
            self._close_window(entry)

    def _close_window(self, entry: AttEntry) -> None:
        """The version has been read: the window of vulnerability is
        over; drop the stream buffer's guard and release MLP limits."""
        entry.speculative = False
        if self.mode is SabreMode.SPECULATIVE:
            # Data-block subscriptions are no longer needed: the
            # hardware-software contract (writers bump the header
            # version first) funnels every later conflict through the
            # base block, which stays subscribed until the end.
            keep = entry.base_addr
            remaining = []
            for addr in entry.subscribed_blocks:
                if addr == keep:
                    remaining.append(addr)
                else:
                    self.chip.unsubscribe(addr, entry.snoop_cb)
            entry.subscribed_blocks = remaining
        self._pump(entry)

    # ------------------------------------------------------------------
    # coherence snooping (§4.1/§4.2)
    # ------------------------------------------------------------------
    def _make_snoop(self, entry: AttEntry):
        def snoop(block_addr: int, cause: InvalidationCause) -> None:
            if entry.finished or entry.aborted:
                return
            if block_addr == entry.base_addr:
                # Ambiguous: writer conflict or eviction.  Never abort
                # outright; re-check the version in the validate stage.
                entry.pending_validate = True
                return
            if entry.speculative:
                # Any other matching invalidation during the window is
                # treated as a race and aborts the SABRe (Fig. 3).
                self._abort(
                    entry,
                    "window_invalidation"
                    if cause is InvalidationCause.WRITE
                    else "window_eviction",
                )

        return snoop

    # ------------------------------------------------------------------
    # aborts & hardware retry (§5.1)
    # ------------------------------------------------------------------
    def _abort(self, entry: AttEntry, cause: str) -> None:
        if entry.aborted:
            return
        sabre_cfg = self.cfg.sabre
        if (
            sabre_cfg.hardware_retry
            and entry.replied_count == 0
            and entry.retries < sabre_cfg.hardware_retry_limit
        ):
            self._hardware_retry(entry)
            return
        entry.aborted = True
        self.counters.add("sabre_aborts")
        self.counters.add(f"abort_{cause}")
        self._unsubscribe_all(entry)
        self._flush_junk(entry)

    def _hardware_retry(self, entry: AttEntry) -> None:
        """Transparent retry, only legal before any reply has been sent
        (request-reply invariant, §5.1)."""
        entry.retries += 1
        entry.epoch += 1
        self.counters.add("hardware_retries")
        self._unsubscribe_all(entry)
        entry.issue_count = 0
        entry.version = None
        entry.speculative = self.mode is SabreMode.SPECULATIVE
        entry.pending_validate = False
        self._pump(entry)

    def _unsubscribe_all(self, entry: AttEntry) -> None:
        for addr in entry.subscribed_blocks:
            self.chip.unsubscribe(addr, entry.snoop_cb)
        entry.subscribed_blocks = []

    def _flush_junk(self, entry: AttEntry) -> None:
        """Reply to received-but-never-issued requests after an abort so
        the one-reply-per-request flow-control invariant holds.  An
        aborted entry never issues again, so ``issue_count`` carries the
        flushed mark: each offset is flushed once, however many
        requests arrive after the abort."""
        limit = min(entry.total_blocks, entry.req_counter)
        for offset in range(entry.issue_count, limit):
            self._reply_data(entry, offset, junk=True)
        if limit > entry.issue_count:
            entry.issue_count = limit

    # ------------------------------------------------------------------
    # reply path
    # ------------------------------------------------------------------
    def _reply_data(self, entry: AttEntry, offset: int, junk: bool = False) -> None:
        # Runs once per transferred cache block: the reply-once guard,
        # the (possibly partial) tail block's size and the memory read
        # are all written out here.
        if entry.replied_bits >> offset & 1:
            return
        entry.replied_bits |= 1 << offset
        entry.replied_count += 1
        size = entry.size_bytes - offset * CACHE_BLOCK
        if size > CACHE_BLOCK:
            size = CACHE_BLOCK
        elif size < 0:
            size = 0
        if junk:
            payload = bytes(size)
        else:
            # PhysicalMemory.read's cell fast path, inlined over the
            # entry's own cell.
            addr = entry.base_addr + offset * CACHE_BLOCK
            lo, hi, buf, origin = entry.cell
            if lo <= addr and addr + size <= hi:
                off = addr - origin
                payload = bytes(buf[off : off + size])
            else:
                phys = self._phys
                payload = phys.read(addr, size)
                entry.cell = phys._last
        src, _rgp, tid = entry.sabre_id
        pkt = Packet(
            PacketKind.SABRE_REPLY,
            self.node_id,
            src,
            tid,
            offset,
            size_bytes=size,
            payload=payload,
        )
        # reply_server.request inlined (once per transferred block).
        server = self.reply_server
        sim = self.sim
        start = sim._now
        next_free = server._next_free
        if next_free > start:
            start = next_free
        service = self._reply_service
        next_free = start + service
        server._next_free = next_free
        sim.call_at(next_free, self.send_packet, pkt)

    # ------------------------------------------------------------------
    # completion & validate stage (§4.2)
    # ------------------------------------------------------------------
    def _maybe_finish(self, entry: AttEntry) -> None:
        if entry.finished or entry.validating:
            return
        if entry.replied_count < entry.total_blocks:
            return
        if entry.aborted:
            self._send_validation(entry, success=False)
            return
        if self.mode is SabreMode.LOCKING:
            self.lock_table.read_unlock(entry.base_addr)
            entry.lock_held = False
            self._send_validation(entry, success=True)
            return
        needs_validate = entry.pending_validate or self.mode is SabreMode.NAIVE_UNSAFE
        if not needs_validate:
            self._send_validation(entry, success=True)
            return
        # Validate stage: re-read the header and compare versions.
        entry.validating = True
        t_issue = self.issue_server.request(self._cycle)

        def start_reread() -> None:
            done, _tier = self.chip.read_block(self.tile, entry.base_addr)
            self.sim.call_at(done, finish_reread)

        def finish_reread() -> None:
            current = self.chip.phys.read_u64(
                entry.base_addr + self._version_offset
            )
            ok = current == entry.version and not is_locked(current)
            if not ok:
                # Every reply is out, so this abort cannot retry and
                # has no junk left to flush: it only counts its cause.
                self._abort(entry, "validate_mismatch")
            self._send_validation(entry, success=ok)

        self.sim.call_at(t_issue, start_reread)

    def _send_validation(self, entry: AttEntry, success: bool) -> None:
        entry.finished = True
        if success:
            self.counters.add("sabre_successes")
        self._unsubscribe_all(entry)
        src, _rgp, tid = entry.sabre_id
        pkt = Packet(
            PacketKind.SABRE_VALIDATION,
            self.node_id,
            src,
            tid,
            meta={"success": success, "version": entry.version},
        )
        t_reply = self.reply_server.request(self._cycle)
        self.sim.call_at(t_reply, self.send_packet, pkt)
        self.att.free(entry)
        if self._pending_registrations and self.att.has_free_entry():
            self._register(self._pending_registrations.popleft())

    # ------------------------------------------------------------------
    # destination-side locking variant (§3.2)
    # ------------------------------------------------------------------
    def _acquire_lock(self, entry: AttEntry) -> None:
        t_issue = self.issue_server.request(self._cycle)

        def attempt() -> None:
            if entry.finished:
                return
            done, _tier = self.chip.read_block(self.tile, entry.base_addr)
            self.sim.call_at(done, decide)

        def decide() -> None:
            if entry.finished:
                return
            version = self.chip.phys.read_u64(
                entry.base_addr + self._version_offset
            )
            if not is_locked(version) and self.lock_table.try_read_lock(
                entry.base_addr
            ):
                entry.lock_held = True
                entry.version = version
                self._pump(entry)
            else:
                self.counters.add("lock_waits")
                self.sim.call_later(
                    self.cfg.sabre.lock_retry_ns, lambda: attempt()
                )

        self.sim.call_at(t_issue, attempt)
