"""Unit tests for repro.common.units and the cycle times the configs
derive from their clocks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import RmcConfig
from repro.common.units import CACHE_BLOCK, blocks_in, gbps_to_bytes_per_ns


def test_cache_block_is_64_bytes():
    assert CACHE_BLOCK == 64


def test_cycles_to_ns_at_2ghz():
    assert 6 * RmcConfig(freq_ghz=2.0).cycle_ns == pytest.approx(3.0)


def test_cycles_to_ns_at_1ghz():
    # Table 2's RMC clock: one cycle per nanosecond.
    assert 7 * RmcConfig().cycle_ns == pytest.approx(7.0)


def test_gbps_conversion_identity():
    # 1 GB/s == 1 byte/ns by definition of our units.
    assert gbps_to_bytes_per_ns(100.0) == pytest.approx(100.0)


def test_negative_bandwidth_rejected():
    with pytest.raises(ValueError):
        gbps_to_bytes_per_ns(-1.0)


def test_blocks_in_exact_and_partial():
    assert blocks_in(0) == 0
    assert blocks_in(1) == 1
    assert blocks_in(64) == 1
    assert blocks_in(65) == 2
    assert blocks_in(8192) == 128


def test_blocks_in_negative_rejected():
    with pytest.raises(ValueError):
        blocks_in(-1)


@given(st.integers(min_value=0, max_value=1 << 24))
def test_blocks_in_covers_size(size):
    blocks = blocks_in(size)
    assert blocks * CACHE_BLOCK >= size
    assert (blocks - 1) * CACHE_BLOCK < size or blocks == 0


@given(
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_cycle_conversion_roundtrip(cycles, freq):
    ns = cycles * RmcConfig(freq_ghz=freq).cycle_ns
    assert ns * freq == pytest.approx(cycles)
