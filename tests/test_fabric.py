"""Unit tests for inter-node fabric and packets."""

import pytest

from repro.common.config import FabricConfig
from repro.common.errors import ConfigError
from repro.fabric.network import Fabric, Link
from repro.fabric.packets import ROUTE_REPLY, ROUTE_REQUEST, Packet, PacketKind
from repro.sim.engine import Simulator
from repro.sonuma.node import Cluster


def wire(op_name, size):
    """Every packet a two-node cluster puts on the fabric while node 1
    runs one ``op_name`` of ``size`` bytes against node 0."""
    sent = []
    with Cluster() as cluster:
        real_send = cluster.fabric.send

        def send(pkt):
            sent.append(pkt)
            return real_send(pkt)

        cluster.fabric.send = send
        base = cluster.node(0).phys.allocate(size)
        client = cluster.node(1)
        buf = client.alloc_buffer(size)

        def proc():
            yield getattr(client, op_name)(0, base, size, buf)

        cluster.sim.process(proc())
        cluster.run()
    return sent


def of_kind(packets, kind):
    return sorted(
        (p for p in packets if p.kind is kind), key=lambda p: p.block_offset
    )


class TestPackets:
    def test_read_request_shape(self):
        """A 130-B remote read unrolls into one request per block, each
        naming its block's address and the bytes it wants."""
        requests = of_kind(wire("remote_read", 130), PacketKind.READ_REQUEST)
        assert [p.block_offset for p in requests] == [0, 1, 2]
        assert [p.meta["size"] for p in requests] == [64, 64, 2]
        assert all(p.kind.route == ROUTE_REQUEST for p in requests)

    def test_reply_carries_payload(self):
        replies = of_kind(wire("remote_read", 130), PacketKind.READ_REPLY)
        assert [p.size_bytes for p in replies] == [64, 64, 2]
        assert [len(p.payload) for p in replies] == [64, 64, 2]
        assert all(p.kind.route == ROUTE_REPLY for p in replies)

    def test_registration_and_validation_meta(self):
        """The source's registration carries the SABRe's shape; the
        R2P2's validation is payload-free and carries the verdict."""
        sent = wire("sabre_read", 9 * 64)
        (reg,) = of_kind(sent, PacketKind.SABRE_REGISTRATION)
        assert reg.meta["total_blocks"] == 9
        assert reg.meta["size"] == 9 * 64
        (val,) = of_kind(sent, PacketKind.SABRE_VALIDATION)
        assert val.meta["success"] is True
        assert val.size_bytes == 0 and val.payload is None

    def test_sequence_numbers_unique(self):
        a = Packet(PacketKind.READ_REQUEST, 0, 1, 1, 0, size_bytes=8)
        b = Packet(PacketKind.READ_REQUEST, 0, 1, 1, 1, size_bytes=8)
        # Packets are told apart by identity: no process-global
        # counter stamps them.
        assert a is not b

    def test_block_payload_size_partial_tail(self):
        """A 130-B SABRe: the R2P2's three replies carry 64, 64 and 2
        bytes."""
        replies = of_kind(wire("sabre_read", 130), PacketKind.SABRE_REPLY)
        assert [p.size_bytes for p in replies] == [64, 64, 2]
        assert [len(p.payload) for p in replies] == [64, 64, 2]


class TestLink:
    def test_fixed_hop_latency(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        arrivals = []
        fabric.attach(1, lambda p: arrivals.append(sim.now))
        pkt = Packet(PacketKind.SABRE_VALIDATION, 0, 1, 1)  # 0-byte payload
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
            fabric.send(Packet(
                PacketKind.READ_REPLY, 0, 1, 1, i, size_bytes=64, payload=b"p" * 64
            ))
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
        fabric.send(Packet(PacketKind.READ_REQUEST, 0, 1, 1, 0, size_bytes=8))
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
            fabric.send(Packet(PacketKind.READ_REQUEST, 0, 1, 1, 0, size_bytes=8))

    def test_bad_node_attach_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        with pytest.raises(ConfigError):
            fabric.attach(5, lambda p: None)

    def test_packet_counting(self):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(), nodes=2)
        arrived = {0: [], 1: []}
        fabric.attach(0, arrived[0].append)
        fabric.attach(1, arrived[1].append)
        fabric.send(Packet(PacketKind.READ_REQUEST, 0, 1, 1, 0, size_bytes=8))
        fabric.send(Packet(PacketKind.READ_REQUEST, 0, 1, 1, 1, size_bytes=8))
        sim.run()
        assert [p.block_offset for p in arrived[1]] == [0, 1]
        assert arrived[0] == []
