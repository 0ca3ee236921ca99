"""Unit + property tests for object layouts and version protocol."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.atomicity.locks import commit_version, is_locked, lock_version
from repro.common.costs import DEFAULT_COSTS
from repro.objstore.layout import (
    DATA_PER_LINE,
    ChecksumLayout,
    PerCacheLineLayout,
    RawLayout,
    fnv64,
    stamped_payload,
    torn_words,
)


class TestVersionProtocol:
    def test_even_versions_unlocked(self):
        assert not is_locked(0)
        assert not is_locked(42)
        assert is_locked(1)
        assert is_locked(43)

    def test_lock_commit_cycle(self):
        v = 0
        locked = lock_version(v)
        assert is_locked(locked)
        committed = commit_version(locked)
        assert committed == 2
        assert not is_locked(committed)

    def test_double_lock_rejected(self):
        with pytest.raises(ValueError):
            lock_version(1)

    def test_commit_unlocked_rejected(self):
        with pytest.raises(ValueError):
            commit_version(2)

    def test_version_wraps_at_64_bits(self):
        top = 2**64 - 2
        assert commit_version(lock_version(top)) == 0


class TestRawLayout:
    def test_wire_size(self):
        assert RawLayout().wire_size(0) == 8
        assert RawLayout().wire_size(120) == 128

    def test_pack_unpack_roundtrip(self):
        layout = RawLayout()
        raw = layout.pack(10, b"hello world")
        result = layout.unpack(raw, 11)
        assert result.ok
        assert result.version == 10
        assert result.data == b"hello world"

    def test_locked_version_flagged(self):
        layout = RawLayout()
        raw = layout.pack(11, b"x")
        assert not layout.unpack(raw, 1).ok

    @given(
        st.binary(max_size=2048),
        st.integers(min_value=0, max_value=2**63 - 1).map(lambda v: v * 2),
    )
    def test_roundtrip_property(self, data, version):
        layout = RawLayout()
        result = layout.unpack(layout.pack(version, data), len(data))
        assert result.ok and result.data == data and result.version == version


class TestPerCacheLineLayout:
    def test_wire_inflation(self):
        layout = PerCacheLineLayout()
        # 64/56 inflation: 8 KB of data needs 147 lines.
        assert layout.wire_size(8192) == 147 * 64
        assert layout.wire_size(1) == 64
        assert layout.wire_size(0) == 64

    def test_pack_unpack_roundtrip(self):
        layout = PerCacheLineLayout()
        data = bytes(range(200))
        result = layout.unpack(layout.pack(6, data), len(data))
        assert result.ok
        assert result.version == 6
        assert result.data == data

    def test_torn_stamp_detected(self):
        layout = PerCacheLineLayout()
        raw = bytearray(layout.pack(4, b"a" * 120))  # 3 lines
        # Corrupt the second line's stamp: simulates a line written by a
        # different (newer) committed version.
        raw[64:72] = (6 & layout.stamp_mask).to_bytes(8, "little")
        assert not layout.unpack(bytes(raw), 120).ok

    def test_locked_header_detected(self):
        layout = PerCacheLineLayout()
        raw = bytearray(layout.pack(4, b"a" * 60))
        raw[0:8] = (5).to_bytes(8, "little")
        assert not layout.unpack(bytes(raw), 60).ok

    def test_stamp_wraparound_false_negative(self):
        """FaRM's ABA hazard: with l version bits, versions 2**l apart
        produce identical stamps, so a torn read can pass the check.
        This motivates hardware SABRes."""
        layout = PerCacheLineLayout(version_bits=2)
        old = layout.pack(4, b"old!" * 30)  # stamps: 4 & 3 == 0
        new = layout.pack(8, b"new!" * 30)  # stamps: 8 & 3 == 0
        torn = bytearray(new[:64] + old[64:])
        result = layout.unpack(bytes(torn), 120)
        assert result.ok  # undetected violation (by design of the test)
        assert result.data != (b"new!" * 30)

    def test_wide_stamps_catch_the_same_race(self):
        layout = PerCacheLineLayout(version_bits=32)
        old = layout.pack(4, b"old!" * 30)
        new = layout.pack(8, b"new!" * 30)
        torn = bytearray(new[:64] + old[64:])
        assert not layout.unpack(bytes(torn), 120).ok

    def test_bad_version_bits_rejected(self):
        with pytest.raises(ValueError):
            PerCacheLineLayout(version_bits=0)
        with pytest.raises(ValueError):
            PerCacheLineLayout(version_bits=65)

    def test_oversized_chunk_rejected(self):
        with pytest.raises(ValueError):
            PerCacheLineLayout().make_line(1, 2, b"x" * 57)

    @given(
        st.binary(max_size=1024),
        st.integers(min_value=0, max_value=2**40).map(lambda v: v * 2),
    )
    def test_roundtrip_property(self, data, version):
        layout = PerCacheLineLayout()
        result = layout.unpack(layout.pack(version, data), len(data))
        assert result.ok and result.data == data

    @given(st.integers(min_value=0, max_value=8192))
    def test_wire_size_is_block_multiple(self, data_len):
        layout = PerCacheLineLayout()
        wire = layout.wire_size(data_len)
        assert wire % 64 == 0
        assert wire >= data_len  # stamps only add bytes
        lines = wire // 64
        assert (lines - 1) * DATA_PER_LINE < max(1, data_len) <= lines * DATA_PER_LINE


class TestChecksumLayout:
    def test_roundtrip(self):
        layout = ChecksumLayout()
        result = layout.unpack(layout.pack(2, b"payload"), 7)
        assert result.ok and result.data == b"payload"

    def test_corruption_detected(self):
        layout = ChecksumLayout()
        raw = bytearray(layout.pack(2, b"payload"))
        raw[-1] ^= 0xFF
        assert not layout.unpack(bytes(raw), 7).ok

    def test_fnv64_deterministic_and_sensitive(self):
        assert fnv64(b"abc") == fnv64(b"abc")
        assert fnv64(b"abc") != fnv64(b"abd")

    @given(st.binary(max_size=512))
    def test_checksum_roundtrip(self, data):
        layout = ChecksumLayout()
        assert layout.unpack(layout.pack(0, data), len(data)).ok


class TestCheckCost:
    """The reader-side CPU cost each layout's check charges."""

    def test_percl_cost_scales_with_wire_size(self):
        layout = PerCacheLineLayout()
        small = layout.check_cost_ns(DEFAULT_COSTS, 128)
        large = layout.check_cost_ns(DEFAULT_COSTS, 8192)
        assert large > small * 20  # roughly linear in size

    def test_percl_8kb_strip_cost_near_paper(self):
        """Fig. 1: stripping an 8 KB object costs on the order of 2 us."""
        cost = PerCacheLineLayout().check_cost_ns(DEFAULT_COSTS, 8192)
        assert 1500.0 <= cost <= 3500.0

    def test_checksum_cost_dwarfs_percl(self):
        """§2.1: CRC64 is ~a dozen cycles/byte; stripping is far cheaper."""
        data_len = 4096
        crc = ChecksumLayout().check_cost_ns(DEFAULT_COSTS, data_len)
        strip = PerCacheLineLayout().check_cost_ns(DEFAULT_COSTS, data_len)
        assert crc > 5 * strip

    def test_raw_check_is_free(self):
        """SABRes leave the store unmodified: the reader's only check is
        the completion's success flag, whatever the size (§7.2)."""
        assert RawLayout().check_cost_ns(DEFAULT_COSTS, 8192) == 0.0


class TestGroundTruth:
    def test_stamped_payload_word_pattern(self):
        payload = stamped_payload(7, 24)
        torn, words = torn_words(payload)
        assert not torn
        assert words == {7}

    def test_mixed_words_are_torn(self):
        payload = stamped_payload(2, 16) + stamped_payload(4, 16)
        torn, words = torn_words(payload)
        assert torn
        assert words == {2, 4}

    def test_empty_payload_not_torn(self):
        assert torn_words(b"")[0] is False

    def test_partial_tail_consistent(self):
        payload = stamped_payload(3, 20)  # 2 words + 4-byte tail
        assert torn_words(payload)[0] is False

    def test_partial_tail_mismatch_detected(self):
        payload = bytearray(stamped_payload(3, 20))
        payload[-1] ^= 0x5A
        assert torn_words(bytes(payload))[0] is True

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=300))
    def test_stamped_payload_never_torn(self, version, length):
        assert torn_words(stamped_payload(version, length))[0] is False
