"""A point allocates only what it touches: a store makes an object's
handle on its first use, the RGP builds a request packet when it sends
it, and an aborted SABRe flushes each unissued offset once."""

from itertools import chain

import pytest
from test_lifetime import FIG7B, traced_without_gc
from test_r2p2_engine import Harness

from repro.core.r2p2 import R2P2Engine
from repro.fabric.network import Fabric
from repro.fabric.packets import Packet, PacketKind
from repro.mem.backing import PhysicalMemory
from repro.objstore.layout import RawLayout, stamped_payload
from repro.objstore.store import ObjectStore
from repro.sim.engine import Simulator
from repro.sonuma.node import SoNode
from repro.workloads.microbench import MicrobenchConfig, run_microbench

pytestmark = pytest.mark.smoke

#: The fig10 128 B point's store: 65 536 objects of 128 bytes.
N_OBJECTS = 65_536
PAYLOAD = 128

#: What populating may allocate beyond the image's own bytes.
POPULATE_SLACK_BYTES = 64 * 1024


# ----------------------------------------------------------------------
# object handles on first use
# ----------------------------------------------------------------------


def test_populating_a_range_allocates_only_the_image():
    data = stamped_payload(0, PAYLOAD)
    with traced_without_gc() as traced:
        store = ObjectStore(PhysicalMemory(), RawLayout())
        start = store.phys._next
        before = traced()
        store.populate(range(N_OBJECTS), data)
        grown = traced() - before
    image = store.phys._next - start
    assert grown * 2**20 <= image + POPULATE_SLACK_BYTES

    looped = ObjectStore(PhysicalMemory(), RawLayout())
    for i in range(N_OBJECTS):
        looped.create(i, data)
    assert len(store) == len(looped) == N_OBJECTS
    for obj_id in (0, N_OBJECTS // 2, N_OBJECTS - 1):
        assert obj_id in store
        assert store.handle(obj_id) == looped.handle(obj_id)
        assert store.handle(obj_id) is store.handle(obj_id)
        assert store.read_raw(obj_id) == looped.read_raw(obj_id)
    assert N_OBJECTS not in store


@pytest.mark.parametrize(
    "ids", [[7, 3, 11, 5], [2, 4, 8, 16], range(9, 0, -2)], ids=str
)
def test_populating_ids_in_any_order_finds_every_id(ids):
    store = ObjectStore(PhysicalMemory(), RawLayout())
    run = store.populate(ids, stamped_payload(0, PAYLOAD))
    looped = ObjectStore(PhysicalMemory(), RawLayout())
    for obj_id in ids:
        looped.create(obj_id, stamped_payload(0, PAYLOAD))
    assert [store.handle(obj_id) for obj_id in ids] == [
        looped.handle(obj_id) for obj_id in ids
    ]
    assert list(run) == [looped.handle(obj_id) for obj_id in ids]
    assert 6 not in store


# ----------------------------------------------------------------------
# request packets when the RGP sends them
# ----------------------------------------------------------------------

REQUEST_KINDS = (PacketKind.SABRE_REQUEST, PacketKind.READ_REQUEST)
SENDS = (Fabric.send, SoNode._send)


@pytest.mark.parametrize("mechanism", ["sabre", "remote_read"])
def test_stopped_run_holds_no_unsent_request_packet(monkeypatch, mechanism):
    """At the instant a fig7b-shaped asynchronous run stops at its
    meter, the RGPs still hold a deep backlog of scheduled sends, and
    none of them holds a request packet: each is built when it goes."""
    seen = []
    drop = Simulator.drop_pending

    def census(sim):
        if not seen:
            pending = [e for e in chain(sim._imm, sim._heap) if e[2] is not None]
            unsent = [
                args[0]
                for _at, _seq, fn, args in pending
                if getattr(fn, "__func__", fn) in SENDS
                and isinstance(args[0], Packet)
                and args[0].kind in REQUEST_KINDS
            ]
            seen.append((len(pending), unsent))
        drop(sim)

    monkeypatch.setattr(Simulator, "drop_pending", census)
    run_microbench(MicrobenchConfig(**{**FIG7B, "mechanism": mechanism}))
    (pending, unsent), = seen
    assert pending > 10_000  # the backlog is there to be counted
    assert len(unsent) == 0


# ----------------------------------------------------------------------
# an aborted SABRe flushes each offset once
# ----------------------------------------------------------------------


def test_aborted_sabre_flushes_each_offset_once(monkeypatch):
    blocks = 64
    h = Harness()
    base = h.make_object(version=5, blocks=blocks)  # locked: aborts at block 0
    calls = []
    reply_data = R2P2Engine._reply_data

    def counted(engine, entry, offset, junk=False):
        calls.append(offset)
        reply_data(engine, entry, offset, junk)

    monkeypatch.setattr(R2P2Engine, "_reply_data", counted)
    h.register(base, blocks)
    h.request(1, 0)
    h.sim.run()
    assert h.engine.counters.get("abort_locked_version") == 1
    for offset in range(1, blocks):
        h.request(1, offset)
    h.sim.run()
    assert len(calls) <= blocks + 1
    assert sorted(p.block_offset for p in h.replies()) == list(range(blocks))
    assert h.validation().meta["success"] is False
