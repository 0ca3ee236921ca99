"""Unit tests for inter-node fabric and packets."""

import pytest

from repro.common.config import FabricConfig
from repro.common.errors import ConfigError
from repro.fabric.network import Fabric, Link
from repro.fabric.packets import (
    PacketKind,
    block_payload_size,
    read_reply,
    read_request,
    sabre_registration,
    sabre_validation,
)
from repro.sim.engine import Simulator


class TestPackets:
    def test_read_request_shape(self):
        pkt = read_request(0, 1, transfer_id=7, block_offset=3)
        assert pkt.kind is PacketKind.READ_REQUEST
        assert pkt.block_offset == 3
        assert not pkt.is_reply

    def test_reply_carries_payload(self):
        pkt = read_reply(1, 0, 7, 0, b"x" * 64)
        assert pkt.is_reply
        assert pkt.size_bytes == 64
        assert pkt.wire_bytes(header_bytes=16) == 80

    def test_registration_and_validation_meta(self):
        reg = sabre_registration(0, 1, 7, total_blocks=9)
        assert reg.meta["total_blocks"] == 9
        val = sabre_validation(1, 0, 7, success=False)
        assert val.meta["success"] is False
        assert val.size_bytes == 0

    def test_sequence_numbers_unique(self):
        a = read_request(0, 1, 1, 0)
        b = read_request(0, 1, 1, 1)
        # Packets are told apart by identity: no process-global
        # counter stamps them.
        assert a is not b

    def test_block_payload_size_partial_tail(self):
        assert block_payload_size(130, 0) == 64
        assert block_payload_size(130, 1) == 64
        assert block_payload_size(130, 2) == 2
        assert block_payload_size(130, 3) == 0


class TestLink:
    def test_fixed_hop_latency(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        arrivals = []
        fabric.attach(1, lambda p: arrivals.append(sim.now))
        pkt = sabre_validation(0, 1, 1, True)  # 0-byte payload
        assert fabric.send(pkt) == pytest.approx(35.16)
        sim.run()
        # 16 B header at 100 GBps = 0.16 ns + 35 ns propagation.
        assert arrivals[0] == pytest.approx(35.16)

    def test_serialization_queues_packets(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        arrivals = []
        fabric.attach(1, lambda p: arrivals.append(sim.now))
        for i in range(3):
            fabric.send(read_reply(0, 1, 1, i, b"p" * 64))
        sim.run()
        assert len(arrivals) == 3
        # Each 80-byte packet serializes for 0.8 ns.
        assert arrivals[1] - arrivals[0] == pytest.approx(0.8)
        assert arrivals[2] - arrivals[1] == pytest.approx(0.8)

    def test_zero_hops_rejected(self):
        with pytest.raises(ConfigError):
            Link(Simulator(), FabricConfig(), hops=0)


class TestFabric:
    def test_two_node_delivery(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        seen = []
        fabric.attach(0, lambda p: seen.append(("n0", p.kind)))
        fabric.attach(1, lambda p: seen.append(("n1", p.kind)))
        fabric.send(read_request(0, 1, 1, 0))
        sim.run()
        assert seen == [("n1", PacketKind.READ_REQUEST)]

    def test_two_nodes_always_one_hop(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        assert fabric.link(0, 1).hops == 1
        assert fabric.link(1, 0).hops == 1

    def test_ring_distance_for_larger_racks(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=6)
        assert fabric.link(0, 3).hops == 3
        assert fabric.link(0, 5).hops == 1  # wraps around

    def test_unattached_destination_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        with pytest.raises(ConfigError):
            fabric.send(read_request(0, 1, 1, 0))

    def test_bad_node_attach_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        with pytest.raises(ConfigError):
            fabric.attach(5, lambda p: None)

    def test_packet_counting(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        fabric.attach(1, lambda p: None)
        fabric.send(read_request(0, 1, 1, 0))
        fabric.send(read_request(0, 1, 1, 1))
        assert fabric.packets_on(0, 1) == 2
        assert fabric.packets_on(1, 0) == 0
