"""Byte-accurate object layouts.

Three layouts from the paper's design space:

* :class:`RawLayout` — 8 B version header + clean data.  Used by the
  SABRe build ("unmodified object store"): atomicity comes from
  hardware, data is zero-copy consumable.
* :class:`PerCacheLineLayout` — FaRM's per-cache-line versions (§2.1):
  the header holds a 64-bit version; every 64 B cache line reserves its
  first 8 bytes for a stamp carrying the version's ``l`` least
  significant bits.  Readers must strip stamps and compare; writers
  must restamp every line.  Wire size is inflated by 64/56.
* :class:`ChecksumLayout` — Pilaf's checksum-in-header (§2.1): readers
  recompute a checksum over the data and compare with the header.

A layout is the whole software side of a Table 1 cell: its format
(:meth:`~ObjectLayout.pack`), its post-transfer check
(:meth:`~ObjectLayout.unpack`) and that check's CPU cost
(:meth:`~ObjectLayout.check_cost_ns`).

All layouts share the odd/even version convention (§4.2, Masstree
style): an odd version means the object is locked by a writer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Tuple

from repro.common.costs import SoftwareCosts
from repro.common.units import CACHE_BLOCK

#: Bytes of payload carried per 64 B line under per-cache-line versions.
DATA_PER_LINE = CACHE_BLOCK - 8

VERSION_BYTES = 8
_U64 = 2**64 - 1


def is_locked(version: int) -> bool:
    """Odd versions mean a writer holds the object (§4.2)."""
    return version % 2 == 1


def lock_version(version: int) -> int:
    """The version a writer publishes when acquiring the object."""
    if is_locked(version):
        raise ValueError(f"object already locked (version {version})")
    return (version + 1) & _U64


def commit_version(version: int) -> int:
    """The version a writer publishes when releasing the object."""
    if not is_locked(version):
        raise ValueError(f"object not locked (version {version})")
    return (version + 1) & _U64


def fnv64(data: bytes) -> int:
    """FNV-1a 64-bit hash, standing in for Pilaf's CRC64.

    The paper only depends on the checksum's collision-resistance and
    its ~dozen-cycles-per-byte software cost (charged separately by the
    cost model); the exact polynomial is irrelevant to the results.
    """
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & _U64
    return h


@dataclass(frozen=True)
class StripResult:
    """Outcome of a software atomicity check on transferred bytes."""

    ok: bool
    version: int
    data: bytes


class ObjectLayout(ABC):
    """How an object's header, metadata, and data map onto memory."""

    #: Offset of the 64-bit version word from the object base.
    version_offset: int = 0

    @abstractmethod
    def wire_size(self, data_len: int) -> int:
        """Bytes the object occupies in memory (and on the wire)."""

    @abstractmethod
    def pack(self, version: int, data: bytes) -> bytes:
        """Serialize a committed object image."""

    @abstractmethod
    def unpack(self, raw: bytes, data_len: int) -> StripResult:
        """Extract (and for software-CC layouts, *validate*) the data."""

    @abstractmethod
    def check_cost_ns(self, costs: SoftwareCosts, data_len: int) -> float:
        """CPU time a reader core spends on :meth:`unpack`'s check."""

    def read_version(self, raw: bytes) -> int:
        return int.from_bytes(
            raw[self.version_offset : self.version_offset + VERSION_BYTES],
            "little",
        )


class RawLayout(ObjectLayout):
    """Version header + clean data; atomicity enforced elsewhere."""

    def wire_size(self, data_len: int) -> int:
        return VERSION_BYTES + data_len

    def pack(self, version: int, data: bytes) -> bytes:
        return (version & _U64).to_bytes(8, "little") + data

    def unpack(self, raw: bytes, data_len: int) -> StripResult:
        version = self.read_version(raw)
        data = bytes(raw[VERSION_BYTES : VERSION_BYTES + data_len])
        # No self-validation possible: a raw layout read is only known
        # to be atomic if the hardware (SABRe) said so.
        return StripResult(ok=not is_locked(version), version=version, data=data)

    def check_cost_ns(self, costs: SoftwareCosts, data_len: int) -> float:
        return 0.0


class PerCacheLineLayout(ObjectLayout):
    """FaRM-style per-cache-line versions.

    ``version_bits`` is FaRM's ``l``: how many low bits of the object
    version each line's stamp replicates.  Small values save bits but
    admit ABA false negatives when the version wraps modulo ``2**l``
    between a reader's two samples — reproduced by a property test.
    """

    def __init__(self, version_bits: int = 16):
        if not 1 <= version_bits <= 64:
            raise ValueError(f"version_bits must be in [1, 64]: {version_bits}")
        self.version_bits = version_bits
        self.stamp_mask = (1 << version_bits) - 1

    def lines(self, data_len: int) -> int:
        return max(1, (data_len + DATA_PER_LINE - 1) // DATA_PER_LINE)

    def wire_size(self, data_len: int) -> int:
        return self.lines(data_len) * CACHE_BLOCK

    def stamp_of(self, version: int) -> int:
        return version & self.stamp_mask

    def make_line(self, line_idx: int, version: int, chunk: bytes) -> bytes:
        """Build one 64 B line: stamp (full version for line 0) + data."""
        if len(chunk) > DATA_PER_LINE:
            raise ValueError(f"chunk of {len(chunk)} exceeds {DATA_PER_LINE}")
        stamp = version & _U64 if line_idx == 0 else self.stamp_of(version)
        return stamp.to_bytes(8, "little") + chunk.ljust(DATA_PER_LINE, b"\x00")

    def pack(self, version: int, data: bytes) -> bytes:
        out = bytearray()
        for i in range(self.lines(len(data))):
            chunk = data[i * DATA_PER_LINE : (i + 1) * DATA_PER_LINE]
            out += self.make_line(i, version, chunk)
        return bytes(out)

    def unpack(self, raw: bytes, data_len: int) -> StripResult:
        """The strip-and-check a FaRM reader performs after transfer."""
        version = self.read_version(raw)
        expected = self.stamp_of(version)
        ok = not is_locked(version)
        data = bytearray()
        for i in range(self.lines(data_len)):
            line = raw[i * CACHE_BLOCK : (i + 1) * CACHE_BLOCK]
            stamp = int.from_bytes(line[:8], "little")
            if i > 0 and stamp != expected:
                ok = False
            data += line[8:]
        return StripResult(ok=ok, version=version, data=bytes(data[:data_len]))

    def check_cost_ns(self, costs: SoftwareCosts, data_len: int) -> float:
        return costs.strip_cost_ns(self.wire_size(data_len))


class ChecksumLayout(ObjectLayout):
    """Pilaf-style checksummed objects: version + checksum header."""

    HEADER = 16  # 8 B version + 8 B checksum

    def wire_size(self, data_len: int) -> int:
        return self.HEADER + data_len

    def pack(self, version: int, data: bytes) -> bytes:
        return (
            (version & _U64).to_bytes(8, "little")
            + fnv64(data).to_bytes(8, "little")
            + data
        )

    def unpack(self, raw: bytes, data_len: int) -> StripResult:
        version = self.read_version(raw)
        stored = int.from_bytes(raw[8:16], "little")
        data = bytes(raw[self.HEADER : self.HEADER + data_len])
        ok = not is_locked(version) and fnv64(data) == stored
        return StripResult(ok=ok, version=version, data=data)

    def check_cost_ns(self, costs: SoftwareCosts, data_len: int) -> float:
        return costs.checksum_cost_ns(data_len)


def torn_words(payload: bytes) -> Tuple[bool, set]:
    """Ground-truth torn-read detector for stamped payloads.

    Microbenchmark writers fill an object's payload with its committed
    version repeated as little-endian u64 words; a read is atomic iff
    every full word agrees (and the tail matches the word prefix).
    Returns ``(is_torn, distinct_words)``.
    """
    if not payload:
        return False, set()
    full_words = len(payload) // 8
    if full_words:
        # Fast path: an untorn stamped payload is one word repeated —
        # a single C-level compare instead of unpacking every word.
        first = payload[:8]
        if payload[: full_words * 8] == first * full_words:
            words = {int.from_bytes(first, "little")}
        else:
            words = {
                int.from_bytes(payload[i : i + 8], "little")
                for i in range(0, len(payload) - 7, 8)
            }
    else:
        words = set()
    tail = len(payload) % 8
    if not words:
        # Object smaller than one word: cannot be torn at word level.
        return False, set()
    if tail:
        expected_tail = next(iter(words)).to_bytes(8, "little")[:tail]
        if len(words) == 1 and payload[-tail:] != expected_tail:
            return True, words
    return len(words) > 1, words


def stamped_payload(version: int, length: int) -> bytes:
    """Payload of ``length`` bytes carrying ``version`` in every word."""
    if length <= 0:
        return b""
    word = (version & _U64).to_bytes(8, "little")
    reps = (length + 7) // 8
    return (word * reps)[:length]
