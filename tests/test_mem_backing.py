"""Unit tests for the physical backing store."""

import gc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.mem.backing import PhysicalMemory


def test_allocate_returns_aligned_base():
    mem = PhysicalMemory()
    base = mem.allocate(100)
    assert base % 64 == 0


def test_read_back_written_bytes():
    mem = PhysicalMemory()
    base = mem.allocate(256)
    mem.write(base + 10, b"hello")
    assert mem.read(base + 10, 5) == b"hello"


def test_fresh_allocation_is_zeroed():
    mem = PhysicalMemory()
    base = mem.allocate(64)
    assert mem.read(base, 64) == bytes(64)


def test_multiple_regions_independent():
    mem = PhysicalMemory()
    a = mem.allocate(64)
    b = mem.allocate(64)
    mem.write(a, b"A" * 64)
    mem.write(b, b"B" * 64)
    assert mem.read(a, 64) == b"A" * 64
    assert mem.read(b, 64) == b"B" * 64


def test_unmapped_access_rejected():
    mem = PhysicalMemory()
    with pytest.raises(SimulationError):
        mem.read(0x10, 4)


def test_overrun_rejected():
    mem = PhysicalMemory()
    base = mem.allocate(64)
    with pytest.raises(SimulationError):
        mem.read(base + 60, 8)


def test_zero_size_allocation_rejected():
    mem = PhysicalMemory()
    with pytest.raises(SimulationError):
        mem.allocate(0)


def test_u64_roundtrip():
    mem = PhysicalMemory()
    base = mem.allocate(64)
    mem.write_u64(base + 8, 0xDEADBEEF12345678)
    assert mem.read_u64(base + 8) == 0xDEADBEEF12345678


def test_u64_wraps_to_64_bits():
    mem = PhysicalMemory()
    base = mem.allocate(64)
    mem.write_u64(base, 2**64 + 5)
    assert mem.read_u64(base) == 5


def test_custom_alignment():
    mem = PhysicalMemory()
    base = mem.allocate(10, align=4096)
    assert base % 4096 == 0


@given(st.binary(min_size=1, max_size=512), st.integers(min_value=0, max_value=64))
def test_write_read_roundtrip(data, offset):
    mem = PhysicalMemory()
    base = mem.allocate(len(data) + 64)
    mem.write(base + offset, data)
    assert mem.read(base + offset, len(data)) == data


# ----------------------------------------------------------------------
# cells made on first access
# ----------------------------------------------------------------------

IMAGE = bytes(range(1, 41))


def cells(count=8, size=100):
    mem = PhysicalMemory()
    return mem, mem.allocate_cells(count, size, 64, IMAGE)


def test_untouched_cell_reads_the_image():
    mem, addrs = cells()
    for addr in addrs:
        assert mem.read(addr, 100) == IMAGE + bytes(60)
    assert mem.read(addrs[5] + 38, 4) == IMAGE[38:] + bytes(2)


def test_write_to_a_cell_is_invisible_next_door():
    mem, addrs = cells()
    mem.write(addrs[3], b"\xff" * 100)
    assert mem.read(addrs[3], 100) == b"\xff" * 100
    for addr in (addrs[2], addrs[4]):
        assert mem.read(addr, 100) == IMAGE + bytes(60)
    # Again once the neighbours exist, through a read of the written one.
    mem.write(addrs[4] + 99, b"\x07")
    assert mem.read(addrs[3], 100) == b"\xff" * 100
    assert mem.read(addrs[4], 100) == IMAGE + bytes(59) + b"\x07"


def test_cell_boundary_and_region_end_errors():
    mem, addrs = cells()
    after = mem.allocate(64)
    assert addrs.step == 128 and after == addrs[-1] + 128
    cases = [
        (addrs[2] + 96, 8, addrs[2]),  # across the cell's end
        (addrs[2] + 100, 4, addrs[2]),  # in the padding after it
        (addrs[-1] + 100, 1, addrs[-1]),  # past the region's end
    ]
    for addr, size, cell in cases:
        message = f"access [{addr:#x}, +{size}) overruns region at {cell:#x}"
        with pytest.raises(SimulationError) as err:
            mem.read(addr, size)
        assert str(err.value) == message
        with pytest.raises(SimulationError) as err:
            mem.write(addr, bytes(size))
        assert str(err.value) == message
    with pytest.raises(SimulationError, match="unmapped address 0x100"):
        mem.read(0x100, 1)
    assert mem.read(addrs[2] + 92, 8) == bytes(8)


def test_a_store_costs_the_cells_it_touches():
    """Touching n of N cells allocates about n cells' bytes, not the
    N x stride of the whole region."""
    count, size, touched = 512, 8192, 16
    gc.collect()
    tracemalloc.start()
    try:
        mem = PhysicalMemory()
        addrs = mem.allocate_cells(count, size, 64, IMAGE)
        for addr in addrs[::count // touched]:
            mem.read(addr, 8)
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert touched * size <= grown <= touched * (size + 512) + 4096
