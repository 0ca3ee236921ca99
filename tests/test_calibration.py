"""Calibration invariants: the simulated substrate must exhibit the
anchor numbers the paper's analysis depends on (§5.1, Table 2).

If someone changes a latency constant or a pipeline rate, these tests
catch the drift before it silently invalidates every figure.
"""

import pytest

from repro.common.config import ClusterConfig, NodeConfig, default_cluster
from repro.common.costs import DEFAULT_COSTS
from repro.mem.system import AccessTier, ChipMemorySystem
from repro.noc.mesh import Mesh
from repro.sim.engine import Simulator
from repro.sonuma.node import Cluster

#: The paper's per-R2P2 peak bandwidth target, in GBps, that its
#: Little's-law stream-buffer sizing assumes (§5.1).
R2P2_PEAK_GBPS = 20.0


def fresh_chip():
    sim = Simulator()
    cfg = NodeConfig()
    return ChipMemorySystem(sim, cfg, Mesh(cfg.noc))


class TestMemoryAnchors:
    def test_average_memory_latency_about_90ns(self):
        """§5.1 sizes the stream buffers for a ~90 ns average memory
        access latency; an *unloaded* DRAM access must land in that
        band (accesses are spaced out so channel queuing cannot bias
        the measurement)."""
        chip = fresh_chip()
        sim = chip.sim
        samples = []

        def prober():
            for i in range(128):
                addr = chip.phys.allocate(64)
                done, tier = chip.read_block(i % 16, addr)
                assert tier is AccessTier.MEM
                samples.append(done - sim.now)
                yield 1000.0

        sim.process(prober())
        sim.run()
        avg = sum(samples) / len(samples)
        assert 80.0 <= avg <= 100.0

    def test_llc_hit_far_cheaper_than_memory(self):
        chip = fresh_chip()
        addr = chip.phys.allocate(64)
        miss, _ = chip.read_block(0, addr)
        hit, tier = chip.read_block(0, addr)
        assert tier is AccessTier.LLC
        assert hit < miss / 4

    def test_aggregate_dram_bandwidth_matches_table2(self):
        chip = fresh_chip()
        n = 2048
        base = chip.phys.allocate(64 * n)
        last = 0.0
        for i in range(n):
            done, _ = chip.read_block(0, base + 64 * i)
            last = max(last, done)
        achieved = (n * 64) / last
        # 4 x 25.6 GBps, minus latency edge effects.
        assert 0.75 * 102.4 <= achieved <= 102.4


class TestStreamBufferSizing:
    def test_littles_law_depth_is_sufficient(self):
        """Depth >= peak_bw * mem_latency / block: the paper derives 32
        from 20 GBps x ~90 ns / 64 B ~= 28."""
        cfg = default_cluster()
        sabre = cfg.node.sabre
        required = R2P2_PEAK_GBPS * 90.0 / 64.0
        assert sabre.stream_buffer_depth >= required
        assert sabre.stream_buffer_depth <= 2 * required  # not oversized

    def test_rgp_rate_matches_peak_bandwidth_target(self):
        """3 RMC cycles per 64 B request == 21.3 GBps, the 20 GBps
        per-pipeline target that justifies the sizing above."""
        rmc = default_cluster().node.rmc
        gbps = 64.0 / (rmc.rgp_request_cycles * rmc.cycle_ns)
        assert gbps == pytest.approx(21.3, rel=0.02)


class TestEndToEndAnchors:
    def test_single_block_remote_read_3_to_4x_local(self):
        """§2.3: one-sided reads over soNUMA start at 3-4x of a local
        memory access (~90 ns)."""
        cluster = Cluster()
        dst, src = cluster.node(0), cluster.node(1)
        addr = dst.phys.allocate(64)
        buf = src.alloc_buffer(64)
        latency = []

        def proc():
            result = yield src.remote_read(0, addr, 64, buf)
            latency.append(result.timings.end_to_end_ns)

        cluster.sim.process(proc())
        cluster.run()
        assert 2.0 * 90.0 <= latency[0] <= 4.0 * 90.0

    def test_fabric_goodput_ceiling(self):
        """Reply wire overhead caps goodput at link_gbps * 64/80."""
        cfg = ClusterConfig()
        payload = 64.0
        wire = payload + cfg.fabric.header_bytes
        ceiling = cfg.fabric.link_gbps * payload / wire
        assert ceiling == pytest.approx(80.0)


class TestCostModelAnchors:
    def test_strip_8kb_near_2_2us(self):
        """Fig. 1's anchor: stripping an 8 KB object costs ~2.2 us."""
        wire = 147 * 64  # perCL wire size of an 8 KB object
        cost = DEFAULT_COSTS.strip_cost_ns(wire)
        assert 2000.0 <= cost <= 3200.0

    def test_checksum_rate_about_12_cycles_per_byte(self):
        """§2.1: ~a dozen cycles per checksummed byte at 2 GHz."""
        per_byte_cycles = DEFAULT_COSTS.checksum_ns_per_byte * 2.0
        assert 10.0 <= per_byte_cycles <= 14.0

    def test_frontend_factor_reflects_smaller_footprint(self):
        """§7.3: ~7 % smaller instruction working set -> measurably
        cheaper framework fixed cost, but not a free lunch."""
        assert 0.7 <= DEFAULT_COSTS.sabre_frontend_factor < 1.0
