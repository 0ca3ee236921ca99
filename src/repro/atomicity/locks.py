"""The version word of §4.2 and the reader-writer lock table.

An object's 8 B header is a version word; an odd version means a writer
holds the object (Masstree style).  R2P2 (:mod:`repro.core`) refuses to
start a read of a locked object, and the software writers
(:mod:`repro.objstore`) lock and commit through the same helpers.
Destination-side locking SABRes need *shared reader locks* (§3.2):
:class:`ReaderWriterLockTable` is that state machine, timed by its
callers.  DrTM-style source locking needs no table: it CASes the
version word (:mod:`repro.objstore.protocols`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

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


@dataclass
class _LockState:
    readers: int = 0
    writer: bool = False


class ReaderWriterLockTable:
    """Shared-reader / exclusive-writer locks keyed by object base."""

    def __init__(self) -> None:
        self._locks: Dict[int, _LockState] = {}

    def _state(self, key: int) -> _LockState:
        state = self._locks.get(key)
        if state is None:
            state = _LockState()
            self._locks[key] = state
        return state

    def try_read_lock(self, key: int) -> bool:
        state = self._state(key)
        if state.writer:
            return False
        state.readers += 1
        return True

    def read_unlock(self, key: int) -> None:
        state = self._state(key)
        if state.readers <= 0:
            raise RuntimeError(f"read_unlock without lock on {key:#x}")
        state.readers -= 1

    def try_write_lock(self, key: int) -> bool:
        state = self._state(key)
        if state.writer or state.readers > 0:
            return False
        state.writer = True
        return True

    def write_unlock(self, key: int) -> None:
        state = self._state(key)
        if not state.writer:
            raise RuntimeError(f"write_unlock without lock on {key:#x}")
        state.writer = False
