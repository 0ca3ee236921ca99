"""Unit tests for the Active Transfers Table."""

import pytest

from repro.common.errors import SimulationError
from repro.core.att import ActiveTransfersTable
from test_r2p2_engine import Harness


def make_att(entries=4, depth=8):
    return ActiveTransfersTable(entries, depth)


def test_register_and_lookup():
    att = make_att()
    entry = att.register((0, 0, 1), 0x1000, 4, 256)
    assert att.lookup((0, 0, 1)) is entry
    assert att.lookup((0, 0, 2)) is None
    assert att.occupancy == 1


def test_duplicate_registration_rejected():
    att = make_att()
    att.register((0, 0, 1), 0x1000, 4, 256)
    with pytest.raises(SimulationError):
        att.register((0, 0, 1), 0x2000, 4, 256)


def test_capacity_enforced():
    att = make_att(entries=2)
    att.register((0, 0, 1), 0x1000, 2, 128)
    att.register((0, 0, 2), 0x2000, 2, 128)
    assert not att.has_free_entry()
    with pytest.raises(SimulationError):
        att.register((0, 0, 3), 0x3000, 2, 128)


def test_free_recycles_stream_buffer():
    att = make_att(entries=1)
    entry = att.register((0, 0, 1), 0x1000, 2, 128)
    att.free(entry)
    assert att.has_free_entry()
    entry2 = att.register((0, 0, 2), 0x2000, 2, 128)
    assert att.lookup((0, 0, 1)) is None
    assert att.lookup((0, 0, 2)) is entry2
    assert entry2.base_addr == 0x2000 and entry2.window == 2


def test_double_free_rejected():
    att = make_att()
    entry = att.register((0, 0, 1), 0x1000, 2, 128)
    att.free(entry)
    with pytest.raises(SimulationError):
        att.free(entry)


def test_occupancy_counts_live_entries():
    att = make_att(entries=3)
    entries = [
        att.register((0, 0, i), 0x1000 * (i + 1), 2, 128)
        for i in range(3)
    ]
    assert att.occupancy == 3
    for e in entries:
        att.free(e)
    assert att.occupancy == 0


def test_entry_reply_bookkeeping():
    """The R2P2 replies to each block once: a second reply for an
    offset is dropped, and the count reaches the object's blocks."""
    h = Harness()
    base = h.make_object(version=2, blocks=3)
    h.register(base, 3)
    (entry,) = h.engine.att.entries()
    for offset in (0, 0, 1, 2):
        h.engine._reply_data(entry, offset)
    h.sim.run()
    assert sorted(p.block_offset for p in h.replies()) == [0, 1, 2]
    assert entry.replied_count == entry.total_blocks == 3


def test_block_addr():
    att = make_att()
    entry = att.register((0, 0, 1), 0x1000, 3, 192)
    assert entry.block_addr(0) == 0x1000
    assert entry.block_addr(2) == 0x1080


def test_zero_entries_rejected():
    with pytest.raises(SimulationError):
        ActiveTransfersTable(0, 8)
