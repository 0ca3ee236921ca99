"""Reader-writer lock table for destination-side locking SABRes.

The paper (§3.2) notes that a locking implementation of SABRes needs
*shared reader locks* so concurrent readers do not serialize.  The
table is a functional state machine; timing is charged by the callers.
DrTM-style source locking needs no table: ``DrtmLockProtocol`` CASes
the object's version word (:mod:`repro.workloads.protocols`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class _LockState:
    readers: int = 0
    writer: bool = False


class ReaderWriterLockTable:
    """Shared-reader / exclusive-writer locks keyed by object base."""

    def __init__(self) -> None:
        self._locks: Dict[int, _LockState] = {}
        self.reader_acquisitions = 0
        self.writer_acquisitions = 0
        self.contended = 0

    def _state(self, key: int) -> _LockState:
        state = self._locks.get(key)
        if state is None:
            state = _LockState()
            self._locks[key] = state
        return state

    def try_read_lock(self, key: int) -> bool:
        state = self._state(key)
        if state.writer:
            self.contended += 1
            return False
        state.readers += 1
        self.reader_acquisitions += 1
        return True

    def read_unlock(self, key: int) -> None:
        state = self._state(key)
        if state.readers <= 0:
            raise RuntimeError(f"read_unlock without lock on {key:#x}")
        state.readers -= 1

    def try_write_lock(self, key: int) -> bool:
        state = self._state(key)
        if state.writer or state.readers > 0:
            self.contended += 1
            return False
        state.writer = True
        self.writer_acquisitions += 1
        return True

    def write_unlock(self, key: int) -> None:
        state = self._state(key)
        if not state.writer:
            raise RuntimeError(f"write_unlock without lock on {key:#x}")
        state.writer = False
