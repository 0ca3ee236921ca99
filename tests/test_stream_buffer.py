"""The stream buffer (§4.1, Fig. 3) as the model keeps it: an ATT
entry's ``window`` (how many blocks may be issued while the object's
version is unread) plus the per-block snoop subscriptions the R2P2
holds on the chip's directory, which match addresses the way the
hardware buffer's subtractor does.  Every test drives the R2P2 (or the
ATT it registers into) and observes what it does; the buffer's SRAM
sizing is ``SabreConfig``'s (tests/test_calibration.py)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.units import CACHE_BLOCK
from repro.core.att import ActiveTransfersTable
from test_r2p2_engine import Harness


def watched(h, base, blocks):
    """Per block of ``[base, base + blocks)``: is a snoop subscribed?"""
    return [h.chip.subscriber_count(base + k * CACHE_BLOCK) for k in range(blocks)]


def test_assign_and_release():
    """A registration binds a window to the SABRe's range; completion
    frees the entry and every subscription."""
    h = Harness()
    base = h.make_object(version=2, blocks=4)
    h.start_sabre(base, 4)
    (entry,) = h.engine.att.entries()
    assert entry.base_addr == base and entry.window == 4
    assert watched(h, base, 4) == [1, 1, 1, 1]
    h.sim.run()
    assert h.engine.att.occupancy == 0
    assert watched(h, base, 4) == [0, 0, 0, 0]


def test_double_assign_rejected():
    att = ActiveTransfersTable(4, 8)
    att.register((0, 0, 1), 0x1000, 2, 128)
    with pytest.raises(SimulationError):
        att.register((0, 0, 1), 0x2000, 2, 128)


def test_bad_depth_rejected():
    with pytest.raises(SimulationError):
        ActiveTransfersTable(4, 0)


def test_bad_total_rejected():
    att = ActiveTransfersTable(4, 8)
    with pytest.raises(SimulationError):
        att.register((0, 0, 1), 0x1000, 0, 0)
    assert att.occupancy == 0


class TestSubtractor:
    def test_slot_lookup_by_arithmetic(self):
        """Window slot k watches block ``base + k * 64``."""
        h = Harness(stream_buffer_depth=3)
        base = h.make_object(version=2, blocks=6)
        h.start_sabre(base, 6)
        assert watched(h, base, 6) == [1, 1, 1, 0, 0, 0]

    def test_outside_range_no_match(self):
        """Writes below the base and past the window do not touch the
        SABRe."""
        h = Harness(stream_buffer_depth=4)
        below = h.chip.phys.allocate(CACHE_BLOCK)
        base = h.make_object(version=2, blocks=8)
        assert below == base - CACHE_BLOCK
        h.start_sabre(base, 8)
        (entry,) = h.engine.att.entries()
        h.chip.write_block(0, below)
        h.chip.write_block(0, base + 4 * CACHE_BLOCK)
        assert not entry.aborted and not entry.pending_validate
        h.sim.run()
        assert h.validation().meta["success"] is True

    def test_tracking_limited_to_depth(self):
        """SABRes longer than the buffer only watch ``depth`` blocks:
        the unroll stage stalls past that during the window (§4.1)."""
        h = Harness(stream_buffer_depth=4)
        base = h.make_object(version=2, blocks=100)
        h.start_sabre(base, 100)
        (entry,) = h.engine.att.entries()
        assert entry.window == 4
        assert watched(h, base, 5) == [1, 1, 1, 1, 0]

    def test_unassigned_matches_nothing(self):
        """Before its registration a SABRe watches nothing, so an
        earlier write cannot reach it."""
        h = Harness()
        base = h.make_object(version=2, blocks=2)
        h.chip.write_block(0, base + CACHE_BLOCK)
        assert watched(h, base, 2) == [0, 0]
        h.start_sabre(base, 2)
        h.sim.run()
        assert h.validation().meta["success"] is True


class TestIssueTracking:
    def test_issue_and_receive(self):
        """Every block of the window is issued at once; each memory
        reply is answered exactly once."""
        h = Harness(stream_buffer_depth=8)
        base = h.make_object(version=2, blocks=3)
        h.start_sabre(base, 3)
        (entry,) = h.engine.att.entries()
        assert entry.issue_count == 3
        h.sim.run()
        assert sorted(p.block_offset for p in h.replies()) == [0, 1, 2]
        assert entry.replied_bits == 0b111 and entry.replied_count == 3

    def test_cannot_issue_past_tracked(self):
        h = Harness(stream_buffer_depth=2)
        base = h.make_object(version=2, blocks=8)
        h.start_sabre(base, 8)
        (entry,) = h.engine.att.entries()
        assert entry.issue_count == 2
        assert h.engine.counters.get("stream_buffer_stalls") > 0
        h.sim.run()
        assert len(h.replies()) == 8

    def test_receive_outside_range_ignored(self):
        """Once the version is read the data blocks stop being
        watched: only the base block's subscription stays."""
        h = Harness()
        base = h.make_object(version=2, blocks=16)
        h.start_sabre(base, 16)
        (entry,) = h.engine.att.entries()
        while entry.speculative:
            h.sim.run(until=h.sim.now + 1.0)
        assert watched(h, base, 4) == [1, 0, 0, 0]
        h.chip.write_block(0, base + CACHE_BLOCK)
        assert not entry.aborted

    def test_is_base(self):
        """An invalidation of the base block is ambiguous: it marks the
        SABRe for validation instead of aborting it."""
        h = Harness()
        base = h.make_object(version=2, blocks=2)
        h.start_sabre(base, 2)
        (entry,) = h.engine.att.entries()
        h.chip.write_block(0, base)
        assert entry.pending_validate and not entry.aborted
        h.chip.write_block(0, base + CACHE_BLOCK)
        assert entry.aborted


@settings(max_examples=40, deadline=None)
@given(
    lead=st.integers(min_value=0, max_value=8),
    total=st.integers(min_value=1, max_value=64),
    depth=st.integers(min_value=1, max_value=64),
)
def test_slot_arithmetic_property(lead, total, depth):
    """Wherever the object lies, the window watches exactly its first
    ``min(depth, total)`` blocks and nothing around them."""
    h = Harness(stream_buffer_depth=depth)
    h.chip.phys.allocate((lead + 1) * CACHE_BLOCK)
    base = h.make_object(version=2, blocks=total + 1)
    h.start_sabre(base, total)
    tracked = min(depth, total)
    assert watched(h, base - CACHE_BLOCK, total + 2) == (
        [0] + [1] * tracked + [0] * (total + 1 - tracked)
    )
