"""Tests for one-sided remote writes and remote CAS."""

import pytest

from repro.core.r2p2 import R2P2Engine
from repro.sonuma.node import Cluster
from repro.sonuma.transfer import OpKind
from repro.workloads.microbench import MicrobenchConfig, run_microbench


@pytest.fixture
def cluster():
    return Cluster()


def run_proc(cluster, gen):
    results = []

    def wrapper():
        value = yield from gen
        results.append(value)

    cluster.sim.process(wrapper())
    cluster.run()
    return results[0] if results else None


class TestRemoteWrite:
    def test_bytes_land_at_destination(self, cluster):
        dst, src = cluster.node(0), cluster.node(1)
        addr = dst.phys.allocate(256)

        def gen():
            result = yield src.remote_write(0, addr, b"payload!" * 16)
            return result

        result = run_proc(cluster, gen())
        assert result.success
        assert result.op is OpKind.REMOTE_WRITE
        assert dst.phys.read(addr, 128) == b"payload!" * 16

    def test_multi_block_write_acked_per_block(self, cluster, monkeypatch):
        dst, src = cluster.node(0), cluster.node(1)
        addr = dst.phys.allocate(512)
        served = []
        handle = R2P2Engine._handle_write_request

        def counted(engine, pkt):
            served.append(pkt.block_offset)
            handle(engine, pkt)

        monkeypatch.setattr(R2P2Engine, "_handle_write_request", counted)

        def gen():
            return (yield src.remote_write(0, addr, bytes(range(256)) * 2))

        result = run_proc(cluster, gen())
        assert result.success
        assert sorted(served) == list(range(8))

    def test_write_invalidates_inflight_sabre(self, cluster):
        """A one-sided write races an in-flight SABRe over the same
        object: the coherence invalidation must abort the SABRe."""
        dst, src = cluster.node(0), cluster.node(1)
        from repro.objstore.layout import RawLayout, stamped_payload
        from repro.objstore.store import ObjectStore

        store = ObjectStore(dst.phys, RawLayout())
        store.create(1, stamped_payload(0, 500))
        handle = store.handle(1)
        # Warm the data blocks so they reply before the header.
        for off in range(1, handle.num_blocks):
            dst.chip.read_block(0, handle.base_addr + off * 64)
        buf = src.alloc_buffer(handle.wire_size)
        outcomes = {}

        def sabre_reader():
            result = yield src.sabre_read(
                0, handle.base_addr, handle.wire_size, buf
            )
            outcomes["sabre"] = result.success

        def remote_writer():
            # Posting at 30 ns puts the write's arrival (~95 ns: WQ +
            # unroll + fabric hop) inside the SABRe's window of
            # vulnerability (subscriptions ~65 ns, header reply ~143 ns).
            yield cluster.sim.timeout(30.0)
            yield src.remote_write(0, handle.base_addr + 64, b"X" * 64)

        cluster.sim.process(sabre_reader())
        cluster.sim.process(remote_writer())
        cluster.run()
        assert outcomes["sabre"] is False
        assert dst.counters.get("sabre_aborts") == 1


class TestRemoteCas:
    def test_successful_swap(self, cluster):
        dst, src = cluster.node(0), cluster.node(1)
        addr = dst.phys.allocate(64)
        dst.phys.write_u64(addr, 10)

        def gen():
            return (yield src.remote_cas(0, addr, expected=10, desired=99))

        result = run_proc(cluster, gen())
        assert result.success
        assert result.cas_old_value == 10
        assert dst.phys.read_u64(addr) == 99

    def test_failed_swap_leaves_memory_untouched(self, cluster):
        dst, src = cluster.node(0), cluster.node(1)
        addr = dst.phys.allocate(64)
        dst.phys.write_u64(addr, 10)

        def gen():
            return (yield src.remote_cas(0, addr, expected=7, desired=99))

        result = run_proc(cluster, gen())
        assert not result.success
        assert result.cas_old_value == 10
        assert dst.phys.read_u64(addr) == 10

    def test_concurrent_cas_one_winner(self, cluster):
        dst, src = cluster.node(0), cluster.node(1)
        addr = dst.phys.allocate(64)
        outcomes = []

        def contender(desired):
            result = yield src.remote_cas(0, addr, expected=0, desired=desired)
            outcomes.append(result.success)

        for i in range(4):
            cluster.sim.process(contender(100 + i))
        cluster.run()
        assert outcomes.count(True) == 1
        assert dst.phys.read_u64(addr) in {100, 101, 102, 103}

    def test_cas_roundtrip_latency(self, cluster):
        dst, src = cluster.node(0), cluster.node(1)
        addr = dst.phys.allocate(64)

        def gen():
            return (yield src.remote_cas(0, addr, 0, 1))

        result = run_proc(cluster, gen())
        # One network round trip + destination memory access.
        assert 150.0 <= result.timings.end_to_end_ns <= 350.0


class TestDrtmLockMechanism:
    def test_quiescent_drtm_reads_work(self):
        result = run_microbench(
            MicrobenchConfig(
                mechanism="drtm_lock",
                object_size=512,
                n_objects=16,
                readers=2,
                duration_ns=60_000.0,
                warmup_ns=8_000.0,
            )
        )
        assert result.ops_completed > 10
        assert result.undetected_violations == 0

    def test_drtm_costs_extra_roundtrips(self):
        """§2.1: remote lock acquisition adds network round trips."""
        results = {}
        for mech in ("remote_read", "drtm_lock"):
            results[mech] = run_microbench(
                MicrobenchConfig(
                    mechanism=mech,
                    object_size=512,
                    n_objects=16,
                    readers=1,
                    duration_ns=60_000.0,
                    warmup_ns=8_000.0,
                )
            )
        assert (
            results["drtm_lock"].mean_op_latency_ns
            > 2.0 * results["remote_read"].mean_op_latency_ns
        )

    def test_drtm_safe_under_contention(self):
        result = run_microbench(
            MicrobenchConfig(
                mechanism="drtm_lock",
                object_size=256,
                n_objects=8,
                readers=3,
                writers=3,
                writer_think_ns=300.0,
                duration_ns=80_000.0,
                warmup_ns=10_000.0,
            )
        )
        assert result.ops_completed > 0
        assert result.undetected_violations == 0
