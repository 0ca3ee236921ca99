"""Unit tests for the per-chip memory system + coherence directory."""

import pytest

from repro.common.config import NodeConfig
from repro.mem.system import AccessTier, ChipMemorySystem, InvalidationCause
from repro.noc.mesh import Mesh


@pytest.fixture
def chip():
    from repro.sim.engine import Simulator

    sim = Simulator()
    cfg = NodeConfig()
    mesh = Mesh(cfg.noc)
    return ChipMemorySystem(sim, cfg, mesh)


def _alloc_block(chip):
    return chip.phys.allocate(64)


class TestReadTiers:
    def test_cold_read_goes_to_memory(self, chip):
        addr = _alloc_block(chip)
        done, tier = chip.read_block(0, addr)
        assert tier is AccessTier.MEM
        # DRAM array latency + controller overhead alone exceed 70 ns.
        assert done >= 70.0

    def test_second_read_hits_llc(self, chip):
        addr = _alloc_block(chip)
        chip.read_block(0, addr)
        done, tier = chip.read_block(0, addr)
        assert tier is AccessTier.LLC
        assert done < 30.0

    def test_read_after_write_forwards_from_l1(self, chip):
        addr = _alloc_block(chip)
        chip.write_block(3, addr, b"\xab" * 64)
        done, tier = chip.read_block(0, addr)
        assert tier is AccessTier.L1
        # The forwarded copy lands in the LLC (M->S downgrade).
        _, tier2 = chip.read_block(0, addr)
        assert tier2 is AccessTier.LLC

    def test_memory_latency_near_90ns(self, chip):
        """§5.1 quotes ~90 ns average memory access latency."""
        total = 0.0
        n = 64
        for i in range(n):
            addr = chip.phys.allocate(64)
            done, tier = chip.read_block(i % 16, addr)
            assert tier is AccessTier.MEM
            total += done - chip.sim.now
        avg = total / n
        assert 70.0 <= avg <= 110.0


class TestWrites:
    def test_write_updates_bytes_immediately(self, chip):
        addr = _alloc_block(chip)
        chip.write_block(0, addr, b"Z" * 64)
        assert chip.read_bytes(addr, 64) == b"Z" * 64

    def test_write_hit_on_own_m_copy_is_cheap(self, chip):
        addr = _alloc_block(chip)
        first = chip.write_block(0, addr)
        second = chip.write_block(0, addr)
        assert second < first

    def test_oversized_write_rejected(self, chip):
        addr = _alloc_block(chip)
        with pytest.raises(ValueError):
            chip.write_block(0, addr, b"x" * 65)

    def test_ownership_migrates_between_cores(self, chip):
        addr = _alloc_block(chip)
        chip.write_block(0, addr)
        chip.write_block(1, addr)
        assert chip.tier_of(addr) is AccessTier.L1


class TestSnooping:
    def test_write_invalidation_delivered_synchronously(self, chip):
        addr = _alloc_block(chip)
        events = []
        chip.subscribe(addr, lambda b, c: events.append((b, c)))
        chip.write_block(0, addr)
        assert events == [(addr, InvalidationCause.WRITE)]

    def test_unsubscribe_stops_delivery(self, chip):
        addr = _alloc_block(chip)
        events = []

        def snoop(b, c):
            events.append(b)

        chip.subscribe(addr, snoop)
        chip.unsubscribe(addr, snoop)
        chip.write_block(0, addr)
        assert events == []
        assert chip.subscriber_count(addr) == 0

    def test_unrelated_block_not_notified(self, chip):
        a = _alloc_block(chip)
        b = _alloc_block(chip)
        events = []
        chip.subscribe(a, lambda blk, c: events.append(blk))
        chip.write_block(0, b)
        assert events == []

    def test_eviction_invalidation(self, chip):
        """Filling the LLC past capacity evicts the oldest block and
        notifies its subscribers with cause EVICTION (§4.2 false alarm)."""
        first = chip.phys.allocate(64)
        events = []
        chip.read_block(0, first)  # bring into LLC
        chip.subscribe(first, lambda b, c: events.append((b, c)))
        region = chip.phys.allocate(64 * (chip.llc.capacity + 8))
        for i in range(chip.llc.capacity + 8):
            chip.read_block(0, region + 64 * i)
        assert (first, InvalidationCause.EVICTION) in events

    def test_multiple_subscribers_all_notified(self, chip):
        addr = _alloc_block(chip)
        hits = []
        chip.subscribe(addr, lambda b, c: hits.append("a"))
        chip.subscribe(addr, lambda b, c: hits.append("b"))
        chip.write_block(0, addr)
        assert sorted(hits) == ["a", "b"]


class TestBandwidthContention:
    def test_streaming_reads_queue_on_channels(self, chip):
        """Reading far more blocks than channels must take at least
        total_bytes / total_bandwidth."""
        n = 512
        base = chip.phys.allocate(64 * n)
        last = 0.0
        for i in range(n):
            done, _ = chip.read_block(0, base + 64 * i)
            last = max(last, done)
        floor = (n * 64) / chip.dram.total_rate
        assert last >= floor
