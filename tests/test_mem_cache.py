"""Unit tests for the LRU cache model.

The chip's read path works on ``LruCache._blocks`` (address -> dirty,
in LRU order) directly, so the tests observe residency there."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import NodeConfig
from repro.common.errors import SimulationError
from repro.mem.cache import LruCache
from repro.mem.system import AccessTier, ChipMemorySystem
from repro.noc.mesh import Mesh
from repro.sim.engine import Simulator


def test_insert_and_contains():
    c = LruCache(4)
    assert c.insert(0) is None
    assert 0 in c._blocks
    assert 64 not in c._blocks


def test_touch_hit_miss_counting():
    """A chip read misses the LLC once, then hits it: the block turns
    resident, the tier drops from memory to the LLC, and so does the
    latency."""
    cfg = NodeConfig()
    chip = ChipMemorySystem(Simulator(), cfg, Mesh(cfg.noc))
    addr = chip.phys.allocate(64)
    miss_at, miss_tier = chip.read_block(0, addr)
    assert addr in chip.llc._blocks
    hit_at, hit_tier = chip.read_block(0, addr)
    assert (miss_tier, hit_tier) == (AccessTier.MEM, AccessTier.LLC)
    assert 0 < hit_at < miss_at


def test_eviction_is_lru_order():
    c = LruCache(2)
    c.insert(0)
    c.insert(64)
    evicted = c.insert(128)
    assert evicted == (0, False)
    assert 0 not in c._blocks
    assert list(c._blocks) == [64, 128]


def test_touch_refreshes_lru():
    c = LruCache(2)
    c.insert(0)
    c.insert(64)
    c.insert(0)  # a re-insert refreshes: 64 becomes LRU
    evicted = c.insert(128)
    assert evicted == (64, False)


def test_dirty_propagates_through_eviction():
    c = LruCache(1)
    c.insert(0, dirty=True)
    evicted = c.insert(64)
    assert evicted == (0, True)


def test_reinsert_keeps_dirty_bit_sticky():
    c = LruCache(2)
    c.insert(0, dirty=True)
    c.insert(0, dirty=False)
    assert c._blocks[0] is True


def test_mark_clean():
    c = LruCache(2)
    c.insert(0, dirty=True)
    c.mark_clean(0)
    assert c._blocks[0] is False


def test_invalidate():
    c = LruCache(2)
    c.insert(0)
    assert c.invalidate(0)
    assert not c.invalidate(0)
    assert not c._blocks


def test_zero_capacity_rejected():
    with pytest.raises(SimulationError):
        LruCache(0)


@given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
def test_never_exceeds_capacity(accesses):
    c = LruCache(8)
    for a in accesses:
        c.insert(a * 64)
        assert len(c._blocks) <= 8


@given(st.lists(st.integers(min_value=0, max_value=31), max_size=200))
def test_most_recent_always_resident(accesses):
    c = LruCache(4)
    for a in accesses:
        addr = a * 64
        c.insert(addr)
        assert next(reversed(c._blocks)) == addr
