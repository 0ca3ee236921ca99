"""Unit tests driving the R2P2 engine directly with crafted packets
(no source node, no fabric): the ATT/stream-buffer state machine in
isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import NodeConfig, SabreMode
from repro.common.units import CACHE_BLOCK
from repro.core.r2p2 import R2P2Engine
from repro.fabric.packets import Packet, PacketKind
from repro.mem.system import ChipMemorySystem
from repro.noc.mesh import Mesh
from repro.sim.engine import Simulator


class Harness:
    """An R2P2 wired to a real chip memory system and a packet sink."""

    def __init__(
        self,
        engine_cls=R2P2Engine,
        chip_cls=ChipMemorySystem,
        page_bytes=None,
        **node_overrides,
    ):
        import dataclasses

        self.sim = Simulator()
        cfg = NodeConfig()
        if node_overrides:
            sabre = dataclasses.replace(cfg.sabre, **node_overrides)
            cfg = dataclasses.replace(cfg, sabre=sabre)
        if page_bytes is not None:
            cfg = dataclasses.replace(cfg, page_bytes=page_bytes)
        self.cfg = cfg
        mesh = Mesh(cfg.noc)
        self.chip = chip_cls(self.sim, cfg, mesh)
        self.sent = []
        self.engine = engine_cls(
            self.sim,
            cfg,
            self.chip,
            node_id=0,
            index=0,
            tile=mesh.rmc_tile(0),
            send_packet=self.sent.append,
        )

    def make_object(self, version: int, blocks: int) -> int:
        base = self.chip.phys.allocate(blocks * CACHE_BLOCK)
        self.chip.phys.write_u64(base, version)
        return base

    def register(self, base: int, blocks: int, tid: int = 1) -> None:
        self.engine.handle_packet(Packet(
            PacketKind.SABRE_REGISTRATION, 1, 0, tid, size_bytes=8,
            meta={
                "total_blocks": blocks,
                "addr": base,
                "size": blocks * CACHE_BLOCK,
                "rgp": 0,
            },
        ))

    def request(self, tid: int, offset: int) -> None:
        self.engine.handle_packet(Packet(
            PacketKind.SABRE_REQUEST, 1, 0, tid, offset, size_bytes=8,
            meta={"rgp": 0},
        ))

    def start_sabre(self, base: int, blocks: int, tid: int = 1) -> None:
        self.register(base, blocks, tid)
        for off in range(blocks):
            self.request(tid, off)

    def replies(self):
        return [p for p in self.sent if p.kind is PacketKind.SABRE_REPLY]

    def validation(self):
        vals = [p for p in self.sent if p.kind is PacketKind.SABRE_VALIDATION]
        return vals[0] if vals else None


class TestBasicLifecycle:
    def test_sabre_completes_and_frees_att(self):
        h = Harness()
        base = h.make_object(version=4, blocks=4)
        h.start_sabre(base, 4)
        assert h.engine.att.occupancy == 1
        h.sim.run()
        assert len(h.replies()) == 4
        assert h.validation().meta["success"] is True
        assert h.validation().meta["version"] == 4
        assert h.engine.att.occupancy == 0

    def test_odd_version_aborts_but_replies_everything(self):
        h = Harness()
        base = h.make_object(version=5, blocks=4)  # locked object
        h.start_sabre(base, 4)
        h.sim.run()
        assert len(h.replies()) == 4  # request-reply invariant
        assert h.validation().meta["success"] is False
        assert h.engine.counters.get("abort_locked_version") == 1

    def test_window_closes_on_version_reply(self):
        h = Harness()
        base = h.make_object(version=2, blocks=2)
        h.start_sabre(base, 2)
        entry = h.engine.att.entries()[0]
        assert entry.speculative
        h.sim.run()
        assert entry.version == 2
        assert not entry.speculative

    def test_requests_gate_issue(self):
        """issue_count never exceeds the request counter (§5.1)."""
        h = Harness()
        base = h.make_object(version=2, blocks=8)
        h.register(base, 8, tid=9)
        for off in range(3):  # only 3 of 8 requests received
            h.request(9, off)
        entry = h.engine.att.entries()[0]
        h.sim.run()
        assert entry.issue_count == 3
        assert len(h.replies()) == 3
        assert h.validation() is None  # not complete yet
        for off in range(3, 8):
            h.request(9, off)
        h.sim.run()
        assert h.validation() is not None


class TestSnoopRules:
    def test_non_base_invalidation_during_window_aborts(self):
        h = Harness()
        base = h.make_object(version=2, blocks=4)
        h.start_sabre(base, 4)
        entry = h.engine.att.entries()[0]
        # Deliver an invalidation for a tracked non-base block while the
        # version read is still outstanding.
        assert entry.speculative
        h.chip.write_block(0, base + CACHE_BLOCK)
        assert entry.aborted
        assert h.engine.counters.get("abort_window_invalidation") == 1
        h.sim.run()
        assert h.validation().meta["success"] is False

    def test_base_invalidation_never_aborts_directly(self):
        h = Harness()
        base = h.make_object(version=2, blocks=4)
        h.start_sabre(base, 4)
        entry = h.engine.att.entries()[0]
        h.chip.write_block(0, base)  # base block touched
        assert not entry.aborted
        assert entry.pending_validate
        h.sim.run()
        # The version word was rewritten by write_block (same value 2
        # preserved in phys because no data given): validate re-reads
        # and compares.
        assert entry.validating
        assert h.validation().meta["success"] is True

    def test_post_window_data_invalidation_ignored(self):
        h = Harness()
        base = h.make_object(version=2, blocks=2)
        h.start_sabre(base, 2)
        entry = h.engine.att.entries()[0]
        h.sim.run(until=200.0)  # window closed, data read
        assert not entry.speculative
        # Data-block subscriptions were dropped at window close; a
        # write there no longer reaches the entry.
        h.chip.write_block(0, base + CACHE_BLOCK)
        assert not entry.aborted

    def test_validate_mismatch_fails_sabre(self):
        h = Harness()
        base = h.make_object(version=2, blocks=16)
        h.start_sabre(base, 16)
        entry = h.engine.att.entries()[0]

        def tamper():
            if not entry.speculative and not entry.finished:
                # Post-window: bump the version (contract-abiding
                # writers always touch the base block first).
                h.chip.write_block(0, base, (3).to_bytes(8, "little"))
            else:
                h.sim.call_later(5.0, tamper)

        h.sim.call_later(5.0, tamper)
        h.sim.run()
        assert h.validation().meta["success"] is False
        assert h.engine.counters.get("abort_validate_mismatch") == 1
        assert h.engine.counters.get("sabre_aborts") == 1


class TestStreamBufferLimits:
    def test_window_issue_bounded_by_depth(self):
        h = Harness(stream_buffer_depth=4)
        base = h.make_object(version=2, blocks=12)
        h.start_sabre(base, 12)
        entry = h.engine.att.entries()[0]
        # Before any memory reply arrives, at most `depth` loads issued.
        h.sim.run(until=30.0)
        assert entry.issue_count <= 4
        assert h.engine.counters.get("stream_buffer_stalls") > 0
        h.sim.run()
        assert h.validation().meta["success"] is True
        assert len(h.replies()) == 12

    def test_single_entry_att_queues_second_registration(self):
        h = Harness(stream_buffers=1)
        a = h.make_object(version=2, blocks=2)
        b = h.make_object(version=2, blocks=2)
        h.start_sabre(a, 2, tid=1)
        h.start_sabre(b, 2, tid=2)
        assert h.engine.att.occupancy == 1
        assert h.engine.counters.get("att_backpressure") == 1
        h.sim.run()
        vals = [p for p in h.sent if p.kind is PacketKind.SABRE_VALIDATION]
        assert len(vals) == 2
        assert all(v.meta["success"] for v in vals)


class _VersionReplyEngine(R2P2Engine):
    """Records the issue count when the version block's memory reply
    arrives: the end of the window of vulnerability."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued_at_version = []

    def _on_mem_reply(self, entry, offset, epoch=0):
        if offset == 0:
            self.issued_at_version.append(entry.issue_count)
        super()._on_mem_reply(entry, offset, epoch)


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=40),
    blocks=st.integers(min_value=1, max_value=48),
    page_blocks=st.sampled_from([4, 8, 16, 64, 32768]),
    lead=st.integers(min_value=0, max_value=70),
)
def test_window_bounds_issue_until_version_reply(depth, blocks, page_blocks, lead):
    """During the window of vulnerability the unroll stage issues at
    most ``min(depth, blocks, blocks left before the page end)`` loads;
    once the version is read the rest follow, and the SABRe validates
    with exactly ``blocks`` replies (§4.1)."""
    page = page_blocks * CACHE_BLOCK
    h = Harness(
        engine_cls=_VersionReplyEngine, page_bytes=page, stream_buffer_depth=depth
    )
    if lead:
        h.chip.phys.allocate(lead * CACHE_BLOCK)  # start the object mid-page
    base = h.make_object(version=2, blocks=blocks)
    h.start_sabre(base, blocks)
    h.sim.run()
    to_page_end = (page - base % page) // CACHE_BLOCK
    # Every request is in before the first memory reply, so the bound
    # is met exactly.
    assert h.engine.issued_at_version == [min(depth, blocks, to_page_end)]
    assert h.validation().meta["success"] is True
    assert len(h.replies()) == blocks
    assert sorted(p.block_offset for p in h.replies()) == list(range(blocks))


class _RecordingChip(ChipMemorySystem):
    """Logs every block a snoop subscribes to, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.subscribed = []

    def subscribe(self, block_addr, snoop):
        self.subscribed.append(block_addr)
        super().subscribe(block_addr, snoop)


class _RecordingEngine(R2P2Engine):
    """Logs each block read as it starts: its time (the instant the
    issue loop scheduled it for) and offset."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.started = []

    def _start_read(self, entry, addr, offset, epoch):
        self.started.append((self.sim.now, offset))
        super()._start_read(entry, addr, offset, epoch)


class _ReferenceEngine(_RecordingEngine):
    """The issue step written plainly: one fresh
    ``BandwidthServer.request`` and one ``call_at`` per block."""

    def _pump(self, entry):
        if entry.aborted or entry.finished:
            return
        spec = self.mode is SabreMode.SPECULATIVE
        snoops = spec or self.mode is SabreMode.NO_SPECULATION
        limit = min(entry.total_blocks, entry.req_counter)
        while entry.issue_count < limit and self._may_issue(entry):
            offset = entry.issue_count
            addr = entry.block_addr(offset)
            entry.issue_count += 1
            if snoops and (entry.speculative and spec or offset == 0):
                self.chip.subscribe(addr, entry.snoop_cb)
                entry.subscribed_blocks.append(addr)
            done = self.issue_server.request(self._block_cost)
            self.sim.call_at(
                done, self._start_read, entry, addr, offset, entry.epoch
            )


class TestIssueLoopReference:
    @pytest.mark.parametrize(
        "case",
        [
            # The window bounded by the stream buffer's depth ...
            dict(blocks=12, stream_buffer_depth=4),
            # ... and by a page boundary (8-block pages: the two
            # objects cross one at offsets 8 and 4).
            dict(blocks=12, page_bytes=8 * CACHE_BLOCK),
            dict(blocks=8, mode=SabreMode.NO_SPECULATION),
            dict(blocks=8, mode=SabreMode.LOCKING),
        ],
        ids=["speculative_depth", "speculative_page", "no_speculation", "locking"],
    )
    def test_issue_loop_matches_per_block_request(self, case):
        """Two SABRes share the issue server, so its queueing shows in
        the times; both engines must start the same reads at the same
        instants and subscribe the same blocks."""

        def trace(engine_cls):
            case_ = dict(case)
            blocks = case_.pop("blocks")
            h = Harness(engine_cls=engine_cls, chip_cls=_RecordingChip, **case_)
            first = h.make_object(version=2, blocks=blocks)
            second = h.make_object(version=4, blocks=blocks)
            h.start_sabre(first, blocks, tid=1)
            h.start_sabre(second, blocks, tid=2)
            h.sim.run()
            vals = [p for p in h.sent if p.kind is PacketKind.SABRE_VALIDATION]
            assert [v.meta["success"] for v in vals] == [True, True]
            stalls = {
                name: h.engine.counters.get(name)
                for name in ("stream_buffer_stalls", "page_boundary_stalls")
            }
            return h.engine.started, h.chip.subscribed, stalls

        started, subscribed, stalls = trace(_RecordingEngine)
        assert (started, subscribed, stalls) == trace(_ReferenceEngine)
        assert len(started) == 2 * case["blocks"]
        if "stream_buffer_depth" in case:
            assert stalls["stream_buffer_stalls"] > 0
        if "page_bytes" in case:
            assert stalls["page_boundary_stalls"] > 0


class TestProtocolErrors:
    def test_request_before_registration_rejected(self):
        from repro.common.errors import ProtocolError

        h = Harness()
        with pytest.raises(ProtocolError):
            h.request(99, 0)

    def test_unroutable_kind_rejected(self):
        from repro.common.errors import ProtocolError

        h = Harness()
        with pytest.raises(ProtocolError):
            h.engine.handle_packet(
                Packet(PacketKind.RPC_SEND, 1, 0, 1)
            )
