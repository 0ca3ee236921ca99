"""Unit tests for the software atomicity checks and the reader/writer lock table."""

import pytest

from repro.atomicity.locks import ReaderWriterLockTable
from repro.objstore.layout import ChecksumLayout, PerCacheLineLayout


class TestMechanisms:
    """The check each software mechanism applies to a read is its layout's unpack."""

    def test_percl_check_roundtrip(self):
        layout = PerCacheLineLayout()
        raw = layout.pack(2, b"d" * 100)
        result = layout.unpack(raw, 100)
        assert result.ok and result.data == b"d" * 100

    def test_checksum_detects_corruption(self):
        layout = ChecksumLayout()
        raw = bytearray(layout.pack(0, b"data" * 8))
        raw[-1] ^= 1
        assert not layout.unpack(bytes(raw), 32).ok


class TestReaderWriterLocks:
    def test_shared_readers(self):
        t = ReaderWriterLockTable()
        assert t.try_read_lock(0x100)
        assert t.try_read_lock(0x100)
        # Both must unlock before a writer gets in.
        t.read_unlock(0x100)
        assert not t.try_write_lock(0x100)
        t.read_unlock(0x100)
        assert t.try_write_lock(0x100)

    def test_writer_excludes_readers(self):
        t = ReaderWriterLockTable()
        assert t.try_write_lock(0x100)
        assert not t.try_read_lock(0x100)
        t.write_unlock(0x100)
        assert t.try_read_lock(0x100)

    def test_readers_exclude_writer(self):
        t = ReaderWriterLockTable()
        t.try_read_lock(0x100)
        assert not t.try_write_lock(0x100)
        t.read_unlock(0x100)
        assert t.try_write_lock(0x100)

    def test_unbalanced_unlock_raises(self):
        t = ReaderWriterLockTable()
        with pytest.raises(RuntimeError):
            t.read_unlock(0x1)
        with pytest.raises(RuntimeError):
            t.write_unlock(0x1)

    def test_independent_keys(self):
        t = ReaderWriterLockTable()
        assert t.try_write_lock(0x100)
        assert t.try_write_lock(0x200)

    def test_contention_counted(self):
        """A held write lock refuses every other acquisition until it
        is released."""
        t = ReaderWriterLockTable()
        assert t.try_write_lock(0x1)
        assert not t.try_read_lock(0x1)
        assert not t.try_write_lock(0x1)
        t.write_unlock(0x1)
        assert t.try_read_lock(0x1)
