"""Unit tests for bandwidth servers and FIFO resources."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthServer, FifoResource, MultiChannel


class TestBandwidthServer:
    def test_single_request_service_time(self):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_ns=2.0)
        assert server.request(100) == pytest.approx(50.0)

    def test_back_to_back_requests_queue(self):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_ns=1.0)
        assert server.request(10) == pytest.approx(10.0)
        assert server.request(10) == pytest.approx(20.0)

    def test_extra_latency_does_not_occupy_channel(self):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_ns=1.0)
        assert server.request(10, extra_latency=100.0) == pytest.approx(110.0)
        # Channel frees at 10, not 110.
        assert server.request(10) == pytest.approx(20.0)

    def test_request_at_defers_start(self):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_ns=1.0)
        assert server.request_at(40.0, 10) == pytest.approx(50.0)

    def test_negative_size_rejected(self):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_ns=1.0)
        with pytest.raises(SimulationError):
            server.request(-1)

    def test_zero_rate_rejected(self):
        with pytest.raises(SimulationError):
            BandwidthServer(Simulator(), bytes_per_ns=0.0)

    @given(st.lists(st.integers(min_value=1, max_value=1000), max_size=30))
    def test_completions_monotonic(self, sizes):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_ns=3.0)
        last = 0.0
        for size in sizes:
            done = server.request(size)
            assert done >= last
            last = done

    @given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=30))
    def test_total_time_at_least_bytes_over_rate(self, sizes):
        sim = Simulator()
        rate = 2.0
        server = BandwidthServer(sim, bytes_per_ns=rate)
        done = 0.0
        for size in sizes:
            done = server.request(size)
        assert done == pytest.approx(sum(sizes) / rate)


class TestMultiChannel:
    def test_interleaving_spreads_blocks(self):
        sim = Simulator()
        bank = MultiChannel(sim, 4, 1.0, interleave_bytes=64)
        channels = {bank.channel_for(64 * i).name for i in range(4)}
        assert len(channels) == 4

    def test_same_block_same_channel(self):
        sim = Simulator()
        bank = MultiChannel(sim, 4, 1.0, interleave_bytes=64)
        assert bank.channel_for(128) is bank.channel_for(129)

    def test_parallel_channels_overlap(self):
        sim = Simulator()
        bank = MultiChannel(sim, 2, 1.0, interleave_bytes=64)
        done_a = bank.request(0, 64)
        done_b = bank.request(64, 64)
        assert done_a == pytest.approx(64.0)
        assert done_b == pytest.approx(64.0)  # different channel: no queuing

    def test_total_rate(self):
        # Table 2: 4 x 25.6 GBps channels.
        sim = Simulator()
        bank = MultiChannel(sim, 4, 25.6)
        assert [ch.rate for ch in bank.channels] == [25.6] * 4


class TestFifoResource:
    def test_grants_up_to_capacity(self):
        sim = Simulator()
        res = FifoResource(sim, capacity=2)
        granted = []
        for tag in "abc":
            res.acquire().add_callback(lambda ev, tag=tag: granted.append(tag))
        sim.run()
        assert granted == ["a", "b"]
        res.release()
        sim.run()
        assert granted == ["a", "b", "c"]

    def test_release_wakes_waiter_fifo(self):
        sim = Simulator()
        res = FifoResource(sim, capacity=1)
        order = []

        def holder():
            yield res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def waiter(tag):
            yield res.acquire()
            order.append((tag, sim.now))
            yield sim.timeout(5.0)
            res.release()

        sim.process(holder())
        sim.process(waiter("w1"))
        sim.process(waiter("w2"))
        sim.run()
        assert order == [("w1", 10.0), ("w2", 15.0)]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = FifoResource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            FifoResource(Simulator(), capacity=0)
