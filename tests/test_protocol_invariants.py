"""soNUMA protocol invariants (§5/§5.1).

The transport keeps a strict request-reply discipline: every data
request gets exactly one reply — even when the SABRe aborts (junk
replies) — and every SABRe registration gets exactly one validation
packet.  These tests count packets on the fabric links directly.
"""

from collections import Counter as PyCounter

import pytest

from repro.common.config import SabreMode, sabre_cluster
from repro.fabric.packets import PacketKind
from repro.objstore.layout import RawLayout, stamped_payload
from repro.objstore.store import ObjectStore
from repro.sonuma.node import Cluster
from repro.workloads.microbench import Microbenchmark, MicrobenchConfig


def packet_census(cluster):
    """Count every packet kind that crossed the fabric."""
    census = PyCounter()
    original = cluster.fabric.send

    def counting_send(pkt):
        census[pkt.kind] += 1
        return original(pkt)

    cluster.fabric.send = counting_send
    for node in cluster.nodes:
        node.fabric = cluster.fabric
    return census


def run_contended_microbench(mode=SabreMode.SPECULATIVE, **kw):
    defaults = dict(
        mechanism="sabre",
        object_size=512,
        n_objects=8,
        readers=4,
        writers=4,
        duration_ns=50_000.0,
        warmup_ns=6_000.0,
        seed=21,
        cluster=sabre_cluster(mode=mode),
    )
    defaults.update(kw)
    bench = Microbenchmark(MicrobenchConfig(**defaults))
    census = packet_census(bench.cluster)
    bench.run()
    return census, bench


class TestRequestReplyInvariant:
    def test_every_sabre_request_gets_exactly_one_reply(self):
        census, _bench = run_contended_microbench()
        assert census[PacketKind.SABRE_REQUEST] > 0
        assert census[PacketKind.SABRE_REPLY] == census[PacketKind.SABRE_REQUEST]

    def test_every_registration_gets_one_validation(self):
        census, _bench = run_contended_microbench()
        assert census[PacketKind.SABRE_REGISTRATION] > 0
        assert (
            census[PacketKind.SABRE_VALIDATION]
            == census[PacketKind.SABRE_REGISTRATION]
        )

    def test_invariant_holds_despite_aborts(self):
        census, bench = run_contended_microbench()
        assert bench.stats.sabre_aborts > 0  # contention did happen
        assert census[PacketKind.SABRE_REPLY] == census[PacketKind.SABRE_REQUEST]

    @pytest.mark.parametrize(
        "mode",
        [SabreMode.NO_SPECULATION, SabreMode.LOCKING],
    )
    def test_invariant_for_other_variants(self, mode):
        census, _bench = run_contended_microbench(
            mode=mode, writer_think_ns=500.0
        )
        assert census[PacketKind.SABRE_REPLY] == census[PacketKind.SABRE_REQUEST]
        assert (
            census[PacketKind.SABRE_VALIDATION]
            == census[PacketKind.SABRE_REGISTRATION]
        )

    def test_plain_reads_one_reply_per_request(self):
        census, _bench = run_contended_microbench(mechanism="percl_versions")
        assert census[PacketKind.READ_REQUEST] > 0
        assert census[PacketKind.READ_REPLY] == census[PacketKind.READ_REQUEST]


class TestOrdering:
    def test_registration_precedes_data_requests(self):
        """The fabric is FIFO per direction, so the registration packet
        always reaches the R2P2 before the SABRe's data requests."""
        cluster = Cluster()
        dst, src = cluster.node(0), cluster.node(1)
        store = ObjectStore(dst.phys, RawLayout())
        store.create(1, stamped_payload(0, 500))
        handle = store.handle(1)
        arrivals = []
        original = dst._handle_packet

        def tracing(pkt):
            arrivals.append(pkt.kind)
            return original(pkt)

        cluster.fabric.attach(0, tracing)
        buf = src.alloc_buffer(handle.wire_size)

        def proc():
            yield src.sabre_read(0, handle.base_addr, handle.wire_size, buf)

        cluster.sim.process(proc())
        cluster.run()
        reg = arrivals.index(PacketKind.SABRE_REGISTRATION)
        first_req = arrivals.index(PacketKind.SABRE_REQUEST)
        assert reg < first_req

    def test_validation_is_last_reply(self):
        cluster = Cluster()
        dst, src = cluster.node(0), cluster.node(1)
        store = ObjectStore(dst.phys, RawLayout())
        store.create(1, stamped_payload(0, 500))
        handle = store.handle(1)
        arrivals = []
        original = src._handle_packet

        def tracing(pkt):
            arrivals.append(pkt.kind)
            return original(pkt)

        cluster.fabric.attach(1, tracing)
        buf = src.alloc_buffer(handle.wire_size)

        def proc():
            yield src.sabre_read(0, handle.base_addr, handle.wire_size, buf)

        cluster.sim.process(proc())
        cluster.run()
        reply_kinds = [
            k
            for k in arrivals
            if k in (PacketKind.SABRE_REPLY, PacketKind.SABRE_VALIDATION)
        ]
        assert reply_kinds[-1] is PacketKind.SABRE_VALIDATION
        assert reply_kinds.count(PacketKind.SABRE_VALIDATION) == 1
