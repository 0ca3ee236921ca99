"""Integration tests: two-node soNUMA transport (remote reads, SABRes,
timing invariants, protocol bookkeeping)."""

import dataclasses
from collections import Counter

import pytest

from repro.common.config import ClusterConfig, SabreMode
from repro.common.errors import ProtocolError, SimulationError
from repro.core.r2p2 import R2P2Engine
from repro.fabric.packets import PacketKind, sabre_reply, sabre_validation
from repro.mem.backing import PhysicalMemory
from repro.objstore.layout import RawLayout, stamped_payload
from repro.objstore.store import ObjectStore
from repro.sonuma.node import Cluster, SoNode
from repro.sonuma.transfer import OpKind


def two_nodes(mode=SabreMode.SPECULATIVE, **sabre_kwargs):
    cfg = ClusterConfig().with_sabre_mode(mode)
    if sabre_kwargs:
        sabre = dataclasses.replace(cfg.node.sabre, **sabre_kwargs)
        node = dataclasses.replace(cfg.node, sabre=sabre)
        cfg = dataclasses.replace(cfg, node=node)
    return Cluster(cfg)


def make_object(cluster, payload_len=1000, version=4, obj_id=1):
    store = ObjectStore(cluster.node(0).phys, RawLayout())
    store.create(obj_id, stamped_payload(version, payload_len), version=version)
    return store, store.handle(obj_id)


def run_op(cluster, op_name, handle, obj_version, payload_len):
    src = cluster.node(1)
    buf = src.alloc_buffer(handle.wire_size)
    results = []

    def proc():
        op = getattr(src, op_name)
        result = yield op(0, handle.base_addr, handle.wire_size, buf)
        results.append(result)

    cluster.sim.process(proc())
    cluster.run()
    raw = src.read_local(buf, handle.wire_size)
    strip = RawLayout().unpack(raw, payload_len)
    return results[0], strip


class TestRemoteRead:
    def test_returns_correct_bytes(self):
        cluster = two_nodes()
        store, handle = make_object(cluster)
        result, strip = run_op(cluster, "remote_read", handle, 4, 1000)
        assert result.success
        assert result.op is OpKind.REMOTE_READ
        assert strip.version == 4
        assert strip.data == stamped_payload(4, 1000)

    def test_timings_are_ordered(self):
        cluster = two_nodes()
        store, handle = make_object(cluster)
        result, _ = run_op(cluster, "remote_read", handle, 4, 1000)
        t = result.timings
        assert t.posted <= t.pickup <= t.first_request <= t.last_reply
        assert t.last_reply < t.completed
        assert t.end_to_end_ns > 100.0  # at least one memory round trip

    def test_single_block_latency_in_paper_range(self):
        """Fig. 7a: one-block reads land around 200 ns (3-4x of a ~90 ns
        local memory access) on the modeled system."""
        cluster = two_nodes()
        store = ObjectStore(cluster.node(0).phys, RawLayout())
        store.create(1, stamped_payload(2, 56), version=2)
        handle = store.handle(1)
        result, _ = run_op(cluster, "remote_read", handle, 2, 56)
        assert 150.0 <= result.timings.end_to_end_ns <= 320.0

    def test_larger_reads_scale_sublinearly(self):
        cluster = two_nodes()
        store = ObjectStore(cluster.node(0).phys, RawLayout())
        store.create(1, stamped_payload(2, 56), version=2)
        store.create(2, stamped_payload(2, 8184), version=2)
        small, _ = run_op(cluster, "remote_read", store.handle(1), 2, 56)
        cluster2 = two_nodes()
        store2 = ObjectStore(cluster2.node(0).phys, RawLayout())
        store2.create(2, stamped_payload(2, 8184), version=2)
        big, _ = run_op(cluster2, "remote_read", store2.handle(2), 2, 8184)
        ratio = big.timings.end_to_end_ns / small.timings.end_to_end_ns
        # 128x the data in far less than 128x (or even 8x) the time.
        assert ratio < 8.0

    def test_zero_size_rejected(self):
        cluster = two_nodes()
        with pytest.raises(SimulationError):
            cluster.node(1).remote_read(0, 0x1000, 0, 0x2000)

    def test_self_target_rejected(self):
        cluster = two_nodes()
        with pytest.raises(SimulationError):
            cluster.node(0).remote_read(0, 0x1000, 64, 0x2000)


class TestSabre:
    @pytest.mark.parametrize(
        "mode",
        [SabreMode.SPECULATIVE, SabreMode.NO_SPECULATION, SabreMode.LOCKING],
    )
    def test_quiescent_sabre_succeeds_with_correct_bytes(self, mode):
        cluster = two_nodes(mode)
        store, handle = make_object(cluster)
        result, strip = run_op(cluster, "sabre_read", handle, 4, 1000)
        assert result.success
        assert result.op is OpKind.SABRE
        assert strip.data == stamped_payload(4, 1000)
        assert cluster.node(0).counters.get("sabre_successes") == 1
        assert cluster.node(0).counters.get("sabre_aborts") == 0

    def test_validation_carries_version(self):
        cluster = two_nodes()
        store, handle = make_object(cluster, version=6)
        result, _ = run_op(cluster, "sabre_read", handle, 6, 1000)
        assert result.remote_version == 6

    def test_sabre_on_locked_object_fails(self):
        """An odd header version means a writer holds the object: the
        R2P2 aborts and software sees success=False (§5.1)."""
        cluster = two_nodes()
        store, handle = make_object(cluster, version=4)
        # Lock the object in place (odd version).
        cluster.node(0).phys.write_u64(handle.base_addr, 5)
        result, _ = run_op(cluster, "sabre_read", handle, 5, 1000)
        assert not result.success
        assert cluster.node(0).counters.get("abort_locked_version") == 1

    def test_sabre_latency_close_to_remote_read(self):
        """Fig. 7a: LightSABRes match remote reads for small objects."""
        cluster = two_nodes()
        store, handle = make_object(cluster, payload_len=120)
        sabre, _ = run_op(cluster, "sabre_read", handle, 4, 120)
        cluster2 = two_nodes()
        store2, handle2 = make_object(cluster2, payload_len=120)
        read, _ = run_op(cluster2, "remote_read", handle2, 4, 120)
        delta = abs(sabre.timings.end_to_end_ns - read.timings.end_to_end_ns)
        assert delta <= 0.15 * read.timings.end_to_end_ns

    def test_no_speculation_pays_serialization(self):
        """§3.2/§7.1: serializing the version read adds roughly one
        memory access (~90 ns) to a multi-block SABRe."""
        lat = {}
        for mode in (SabreMode.SPECULATIVE, SabreMode.NO_SPECULATION):
            cluster = two_nodes(mode)
            store, handle = make_object(cluster, payload_len=1000)
            result, _ = run_op(cluster, "sabre_read", handle, 4, 1000)
            assert result.success
            lat[mode] = result.timings.end_to_end_ns
        penalty = lat[SabreMode.NO_SPECULATION] - lat[SabreMode.SPECULATIVE]
        assert 50.0 <= penalty <= 150.0

    def test_att_backpressure_with_one_stream_buffer(self):
        cfg = ClusterConfig().with_sabre_mode(SabreMode.SPECULATIVE)
        sabre = dataclasses.replace(cfg.node.sabre, stream_buffers=1)
        rmc = dataclasses.replace(cfg.node.rmc, backends=1)
        node = dataclasses.replace(cfg.node, sabre=sabre, rmc=rmc)
        cfg = dataclasses.replace(cfg, node=node)
        cluster = Cluster(cfg)
        store = ObjectStore(cluster.node(0).phys, RawLayout())
        for i in range(4):
            store.create(i, stamped_payload(2, 2000), version=2)
        src = cluster.node(1)
        done = []

        def proc(i):
            h = store.handle(i)
            buf = src.alloc_buffer(h.wire_size)
            result = yield src.sabre_read(0, h.base_addr, h.wire_size, buf)
            done.append(result.success)

        for i in range(4):
            cluster.sim.process(proc(i))
        cluster.run()
        assert done == [True] * 4
        assert cluster.node(0).counters.get("att_backpressure") > 0
        (r2p2,) = cluster.node(0).r2p2s
        assert not r2p2._pending_registrations and not r2p2._queued_sabres
        assert not r2p2._pending_requests

    def test_concurrent_sabres_all_complete(self):
        cluster = two_nodes()
        store = ObjectStore(cluster.node(0).phys, RawLayout())
        n = 24
        for i in range(n):
            store.create(i, stamped_payload(2, 500), version=2)
        src = cluster.node(1)
        done = []

        def proc(i):
            h = store.handle(i)
            buf = src.alloc_buffer(h.wire_size)
            result = yield src.sabre_read(0, h.base_addr, h.wire_size, buf)
            done.append(result.success)

        for i in range(n):
            cluster.sim.process(proc(i))
        cluster.run()
        assert done == [True] * n


class TestPageBoundary:
    def test_window_stalls_at_page_boundary(self):
        """§4.1: the unroll may not cross a page boundary during the
        window of vulnerability; the SABRe stalls, then completes."""
        cfg = ClusterConfig()
        node = dataclasses.replace(cfg.node, page_bytes=4096)
        cfg = dataclasses.replace(cfg, node=node)
        cluster = Cluster(cfg)
        dst = cluster.node(0)
        # Position an object so it straddles a 4 KB page boundary early.
        pad = 4096 - (dst.phys.allocate(64) % 4096) - 128
        if pad > 0:
            dst.phys.allocate(pad)
        store = ObjectStore(dst.phys, RawLayout())
        store.create(1, stamped_payload(2, 4000), version=2)
        handle = store.handle(1)
        assert (handle.base_addr // 4096) != ((handle.base_addr + handle.wire_size - 1) // 4096)
        result, strip = run_op(cluster, "sabre_read", handle, 2, 4000)
        assert result.success
        assert strip.data == stamped_payload(2, 4000)
        assert dst.counters.get("page_boundary_stalls") > 0


def rcp_exits(arrivals, service_ns):
    """An independent model of one RCP: a FIFO charging every reply
    ``service_ns``, in arrival order."""
    free, exits = 0.0, []
    for arrived in arrivals:
        free = max(arrived, free) + service_ns
        exits.append(free)
    return exits


class TestRcpAccounting:
    """Replies are charged to the RCP when they arrive, but a transfer's
    timings and its CQ entry follow the RCP *exit* of its replies."""

    @pytest.fixture
    def arrivals(self, monkeypatch):
        """``(time, kind)`` of every reply reaching any node's RCP."""
        seen = []
        real = SoNode._on_reply

        def spy(node, pkt):
            seen.append((node.sim.now, pkt.kind))
            real(node, pkt)

        monkeypatch.setattr(SoNode, "_on_reply", spy)
        return seen

    @pytest.mark.parametrize(
        "op_name,last_reply,completed",
        [("remote_read", 188.84, 206.84), ("sabre_read", 192.84, 211.84)],
    )
    def test_timings_follow_the_rcp_exit(
        self, arrivals, op_name, last_reply, completed
    ):
        cluster = two_nodes()
        _store, handle = make_object(cluster, payload_len=100)
        assert handle.num_blocks == 2
        result, _ = run_op(cluster, op_name, handle, 4, 100)

        rmc = cluster.cfg.node.rmc
        exits = rcp_exits([t for t, _ in arrivals], rmc.cycle_ns)
        data_exits = [
            out
            for out, (_, kind) in zip(exits, arrivals)
            if kind is not PacketKind.SABRE_VALIDATION
        ]
        t = result.timings
        assert t.last_reply == pytest.approx(data_exits[-1], abs=1e-9)
        assert t.completed == pytest.approx(
            exits[-1] + rmc.cq_write_ns + rmc.cq_poll_ns, abs=1e-9
        )
        # The exit is later than the arrival (a completion charged at
        # arrival time fails here), and the numbers are these:
        assert exits[-1] > arrivals[-1][0]
        assert t.last_reply == pytest.approx(last_reply, abs=1e-6)
        assert t.completed == pytest.approx(completed, abs=1e-6)

    def test_sabre_validation_queues_behind_the_last_data_reply(self, arrivals):
        cluster = two_nodes()
        _store, handle = make_object(cluster, payload_len=100)
        run_op(cluster, "sabre_read", handle, 4, 100)
        exits = rcp_exits([t for t, _ in arrivals], cluster.cfg.node.rmc.cycle_ns)
        assert arrivals[-1][1] is PacketKind.SABRE_VALIDATION
        # The pinned case above exercises RCP queueing, not only service.
        assert arrivals[-1][0] < exits[-2]

    @pytest.mark.parametrize("op_name", ["remote_read", "sabre_read"])
    def test_abort_while_the_last_reply_sits_in_the_rcp(self, arrivals, op_name):
        probe = two_nodes()
        _store, handle = make_object(probe, payload_len=100)
        run_op(probe, op_name, handle, 4, 100)
        rmc = probe.cfg.node.rmc
        last_arrival = arrivals[-1][0]
        last_exit = rcp_exits([t for t, _ in arrivals], rmc.cycle_ns)[-1]
        abort_at = (last_arrival + last_exit) / 2

        cluster = two_nodes()
        _store, handle = make_object(cluster, payload_len=100)
        src = cluster.node(1)
        buf = src.alloc_buffer(handle.wire_size)
        results, aborted = [], []

        def proc():
            op = getattr(src, op_name)
            results.append((yield op(0, handle.base_addr, handle.wire_size, buf)))

        cluster.sim.process(proc())
        cluster.sim.call_at(
            abort_at, lambda: aborted.append(src.fail_transfers_to(0))
        )
        del arrivals[:]
        cluster.run()  # no ProtocolError, no second completion

        assert aborted == [1]
        assert [t for t, _ in arrivals][-1] == last_arrival < abort_at
        assert len(results) == 1
        assert results[0].crashed and not results[0].success
        assert results[0].timings.completed > abort_at
        assert src.in_flight == 0
        # A straggler that was on the wire at abort time still vanishes;
        # a reply nobody ever asked for still trips the invariant.
        tid = results[0].transfer_id
        src._handle_packet(sabre_reply(0, 1, tid, 0, bytes(64)))
        with pytest.raises(ProtocolError):
            src._handle_packet(sabre_reply(0, 1, tid + 1, 0, bytes(64)))

    def test_validation_overtaking_data_replies_completes_once(self):
        """Were SABRe requests striped over the R2P2s (§5.1's rejected
        design) the validation could reach the source before the last
        data reply.  Striping is not modeled (a SABRe is pinned to the
        R2P2 holding its registration), so the requests go nowhere and
        the replies are injected at the source NI in that order."""
        cluster = two_nodes()
        cluster.fabric.send = lambda pkt: 0.0
        src, sim = cluster.node(1), cluster.sim
        rmc = cluster.cfg.node.rmc
        buf = src.alloc_buffer(128)
        done = []

        completion = src.sabre_read(0, 0x100000, 128, buf)
        (tid,) = src._transfers

        def proc():
            done.append(((yield completion), sim.now))

        sim.process(proc())
        first, second = b"a" * 64, b"b" * 64
        validation = sabre_validation(0, 1, tid, success=True)
        for when, pkt in (
            (300.0, sabre_reply(0, 1, tid, 0, first)),
            (300.2, validation),
            (300.4, sabre_reply(0, 1, tid, 1, second)),
        ):
            sim.call_at(when, src._handle_packet, pkt)
        cluster.run()

        exits = rcp_exits([300.0, 300.2, 300.4], rmc.cycle_ns)
        assert len(done) == 1
        result, when = done[0]
        assert result.success
        assert result.timings.last_reply == pytest.approx(exits[-1])
        assert when == pytest.approx(exits[-1] + rmc.cq_write_ns + rmc.cq_poll_ns)
        assert src.read_local(buf, 128) == first + second
        assert src.in_flight == 0


class TestCellPerTransfer:
    """Each transfer remembers the memory cell it works in — the landing
    buffer at the source, the object at the destination R2P2 — so
    interleaved transfers do not pay a lookup per block, and a block
    outside that cell still goes through ``PhysicalMemory``'s checks."""

    PAYLOAD = 1000  # 16 blocks on the wire

    @pytest.fixture
    def locates(self, monkeypatch):
        """``_locate`` calls per ``PhysicalMemory`` (keyed by identity)."""
        calls = Counter()
        real = PhysicalMemory._locate

        def counting(phys, addr, size):
            calls[id(phys)] += 1
            return real(phys, addr, size)

        monkeypatch.setattr(PhysicalMemory, "_locate", counting)
        return calls

    @staticmethod
    def switches(sequence):
        return sum(a != b for a, b in zip(sequence, sequence[1:]))

    @pytest.mark.parametrize("op_name", ["sabre_read", "remote_read"])
    def test_interleaved_transfers_look_memory_up_once_each(
        self, monkeypatch, locates, op_name
    ):
        cluster = two_nodes()
        dst, src = cluster.node(0), cluster.node(1)
        store = ObjectStore(dst.phys, RawLayout())
        images = {
            obj: stamped_payload(2 * obj + 2, self.PAYLOAD) for obj in (0, 1)
        }
        for obj, image in images.items():
            store.create(obj, image, version=2 * obj + 2)
        handles = [store.handle(obj) for obj in images]
        wire = handles[0].wire_size
        bufs = [src.alloc_buffer(wire) for _ in handles]

        landed, served = [], []
        on_reply, reply_data = SoNode._on_reply, R2P2Engine._reply_data

        def spy_reply(node, pkt):
            if pkt.payload is not None:
                landed.append(pkt.transfer_id)
            on_reply(node, pkt)

        def spy_reply_data(r2p2, entry, offset, junk=False):
            served.append(entry.sabre_id)
            reply_data(r2p2, entry, offset, junk)

        monkeypatch.setattr(SoNode, "_on_reply", spy_reply)
        monkeypatch.setattr(R2P2Engine, "_reply_data", spy_reply_data)

        op = getattr(src, op_name)
        done = [op(0, h.base_addr, wire, buf) for h, buf in zip(handles, bufs)]
        locates.clear()
        cluster.run()
        found = dict(locates)

        for completion, handle, buf, image in zip(
            done, handles, bufs, images.values()
        ):
            assert completion.value.success
            raw = src.read_local(buf, wire)
            assert RawLayout().unpack(raw, self.PAYLOAD).data == image
        # Both sides really alternate between the two transfers (with
        # the memory's one-entry cache each switch is a lookup) ...
        blocks = handles[0].num_blocks
        assert len(landed) == 2 * blocks and self.switches(landed) >= blocks
        # ... and a transfer costs one lookup at most.
        assert found.get(id(src.phys), 0) <= 2
        if op_name == "sabre_read":
            assert len(served) == 2 * blocks and self.switches(served) >= 4
            assert found.get(id(dst.phys), 0) <= 2

    def test_reply_block_crossing_its_landing_cell_is_refused(self):
        cluster = two_nodes()
        _store, handle = make_object(cluster, payload_len=120)
        src = cluster.node(1)
        assert handle.wire_size == 128
        buf = src.alloc_buffer(96)  # block 1 would land on [64, 128)
        src.alloc_buffer(64)  # mapped right behind it: no hole to hit
        src.remote_read(0, handle.base_addr, 128, buf)
        with pytest.raises(SimulationError, match="overruns region"):
            cluster.run()

    def test_sabre_range_crossing_its_object_cell_is_refused(self):
        cluster = two_nodes()
        store = ObjectStore(cluster.node(0).phys, RawLayout())
        store.populate(range(2), stamped_payload(0, 192))  # 200 B cells
        handle = store.handle(0)
        assert handle.wire_size == 200
        assert store.handle(1).base_addr - handle.base_addr == 256
        src = cluster.node(1)
        buf = src.alloc_buffer(256)
        # Block 3 is [192, 256): past the object's 200 bytes.
        src.sabre_read(0, handle.base_addr, 256, buf)
        with pytest.raises(SimulationError, match="overruns region"):
            cluster.run()
