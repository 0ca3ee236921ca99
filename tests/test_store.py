"""Unit tests for the object store and writer update plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.mem.backing import PhysicalMemory
from repro.objstore.layout import (
    ChecksumLayout,
    PerCacheLineLayout,
    RawLayout,
    is_locked,
    stamped_payload,
)
from repro.objstore.store import ObjectStore


def make_store(layout=None):
    return ObjectStore(PhysicalMemory(), layout or RawLayout())


class TestCreateAndRead:
    def test_create_then_read(self):
        store = make_store()
        store.create(1, b"hello")
        result = store.read(1)
        assert result.ok and result.data == b"hello" and result.version == 0

    def test_objects_are_block_aligned(self):
        store = make_store()
        for i in range(5):
            h = store.create(i, bytes(10))
            assert h.base_addr % 64 == 0

    def test_duplicate_id_rejected(self):
        store = make_store()
        store.create(1, b"x")
        with pytest.raises(SimulationError):
            store.create(1, b"y")

    def test_unknown_object_rejected(self):
        with pytest.raises(SimulationError):
            make_store().read(99)

    def test_odd_initial_version_rejected(self):
        with pytest.raises(SimulationError):
            make_store().create(1, b"x", version=3)


class TestUpdates:
    def test_functional_write_bumps_version_by_two(self):
        store = make_store()
        store.create(1, b"aaaa")
        new_version = store.write(1, b"bbbb")
        assert new_version == 2
        result = store.read(1)
        assert result.ok and result.data == b"bbbb"

    def test_size_change_rejected(self):
        store = make_store()
        store.create(1, b"aaaa")
        with pytest.raises(SimulationError):
            store.write(1, b"too long")

    def test_update_steps_order_header_first_commit_last(self):
        store = make_store()
        h = store.create(1, bytes(100))
        steps, committed = store.update_steps(1, b"z" * 100)
        assert committed == 2
        # First step: header goes odd at the version address.
        addr0, bytes0 = steps[0]
        assert addr0 == store.version_addr(1)
        assert is_locked(int.from_bytes(bytes0, "little"))
        # Last step: header goes even.
        addr_last, bytes_last = steps[-1]
        assert addr_last == store.version_addr(1)
        assert int.from_bytes(bytes_last, "little") == 2
        # Middle steps cover the whole wire image.
        covered = sum(len(b) for _, b in steps[1:-1])
        assert covered == h.wire_size

    def test_partial_replay_leaves_locked_object(self):
        """Stopping mid-plan must leave a detectably-inconsistent object."""
        store = make_store(PerCacheLineLayout())
        store.create(1, stamped_payload(0, 200))
        steps, _ = store.update_steps(1, stamped_payload(2, 200))
        for addr, chunk in steps[: len(steps) // 2]:
            store.phys.write(addr, chunk)
        assert not store.read(1).ok

    def test_full_replay_commits(self):
        store = make_store(PerCacheLineLayout())
        store.create(1, stamped_payload(0, 200))
        steps, committed = store.update_steps(1, stamped_payload(2, 200))
        for addr, chunk in steps:
            store.phys.write(addr, chunk)
        result = store.read(1)
        assert result.ok and result.version == committed == 2

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=600), st.integers(min_value=1, max_value=5))
    def test_repeated_updates_monotone_versions(self, size, rounds):
        store = make_store()
        store.create(1, bytes(size))
        versions = [store.write(1, bytes(size)) for _ in range(rounds)]
        assert versions == [2 * (i + 1) for i in range(rounds)]


class TestHandles:
    def test_num_blocks(self):
        store = make_store()
        h = store.create(1, bytes(120))  # wire = 128 -> 2 blocks
        assert h.num_blocks == 2

    def test_object_ids(self):
        store = make_store()
        store.create(5, b"x")
        store.create(9, b"y")
        assert sorted(store.object_ids()) == [5, 9]
        assert len(store) == 2


LAYOUTS = {
    "raw": RawLayout,
    "percl16": lambda: PerCacheLineLayout(16),
    "checksum": ChecksumLayout,
}


def _aged_memory(prior):
    """A memory whose bump pointer sits wherever a few odd-sized
    allocations left it."""
    phys = PhysicalMemory()
    for size in prior:
        phys.allocate(size, align=8)
    return phys


class TestPopulate:
    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(sorted(LAYOUTS)),
        payload_len=st.integers(min_value=8, max_value=9000),
        n=st.integers(min_value=1, max_value=40),
        prior=st.lists(st.integers(min_value=1, max_value=300), max_size=4),
    )
    def test_populate_is_the_create_loop(self, layout, payload_len, n, prior):
        data = stamped_payload(0, payload_len)
        looped = ObjectStore(_aged_memory(prior), LAYOUTS[layout]())
        for i in range(n):
            looped.create(i, data)
        bulk = ObjectStore(_aged_memory(prior), LAYOUTS[layout]())
        handles = bulk.populate(range(n), data)

        assert handles == [looped.handle(i) for i in range(n)]
        assert bulk.object_ids() == looped.object_ids()
        for i in range(n):
            assert bulk.read_raw(i) == looped.read_raw(i)
            assert bulk.read(i).ok
        assert bulk.phys._next == looped.phys._next
        assert bulk.phys.allocate(100) == looped.phys.allocate(100)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_access_may_not_run_into_the_neighbour(self, layout):
        store = ObjectStore(PhysicalMemory(), LAYOUTS[layout]())
        first, second, last = store.populate(range(3), stamped_payload(0, 100))
        phys = store.phys
        straddle = second.base_addr - 8
        with pytest.raises(SimulationError):
            phys.read(straddle, 16)
        with pytest.raises(SimulationError):
            phys.write(straddle, bytes(16))
        # Warm the last-cell shortcut on the first object, then leave it.
        phys.read(first.base_addr, first.wire_size)
        with pytest.raises(SimulationError):
            phys.read(first.base_addr, second.base_addr - first.base_addr + 1)
        end = last.base_addr + max(last.wire_size, 64)
        assert len(phys.read(end - 8, 8)) == 8
        with pytest.raises(SimulationError):
            phys.read(end - 8, 16)
        with pytest.raises(SimulationError):
            phys.read(end, 1)
        # Neither refused access disturbed the neighbours' bytes.
        assert store.read_raw(0) == store.read_raw(1) == store.read_raw(2)

    def test_padding_between_cells_is_not_addressable(self):
        store = ObjectStore(PhysicalMemory(), RawLayout())
        first, _second = store.populate(range(2), bytes(92))  # wire 100
        with pytest.raises(SimulationError):
            store.phys.read(first.base_addr + first.wire_size, 1)

    def test_refuses_before_it_allocates(self):
        store = ObjectStore(PhysicalMemory(), RawLayout())
        store.populate([5], b"x" * 16)
        before = (len(store), store.phys._next)
        for ids, version in (
            ([1, 2, 1], 0),  # duplicate within the call
            ([4, 5], 0),  # duplicate against the store
            ([1, 2], 3),  # odd (locked) initial version
            ([], 3),  # nothing to create is no licence for bad arguments
        ):
            with pytest.raises(SimulationError):
                store.populate(ids, b"y" * 16, version=version)
            assert (len(store), store.phys._next) == before
        assert store.populate([], b"y" * 16) == []
        assert (len(store), store.phys._next) == before

    def test_populated_objects_take_updates(self):
        store = ObjectStore(PhysicalMemory(), PerCacheLineLayout(16))
        store.populate(range(4), stamped_payload(0, 200), version=2)
        assert store.write(2, stamped_payload(4, 200)) == 4
        assert store.read(2).data == stamped_payload(4, 200)
        assert store.read(1).version == store.read(3).version == 2
