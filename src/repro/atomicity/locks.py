"""Reader-writer lock tables for destination-side locking SABRes and
the DrTM-style source-locking baseline.

The paper (§3.2) notes that a locking implementation of SABRes needs
*shared reader locks* so concurrent readers do not serialize, and that
lease locks (DrTM) address fault tolerance at the price of clock-skew
sensitivity.  Both live here as functional state machines; timing is
charged by the callers.
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

    def readers_of(self, key: int) -> int:
        return self._state(key).readers


@dataclass
class _Lease:
    holder: int
    expires_at: float


class LeaseLockTable:
    """DrTM-style lease locks: a lock auto-expires after ``lease_ns``.

    ``clock_skew_ns`` models per-node clock disagreement: a holder
    whose clock runs fast may believe its lease is still valid after
    the lock manager has expired it — the hazard §2.1 points out.
    """

    def __init__(self, lease_ns: float, clock_skew_ns: float = 0.0):
        if lease_ns <= 0:
            raise ValueError(f"lease must be positive: {lease_ns}")
        self.lease_ns = lease_ns
        self.clock_skew_ns = clock_skew_ns
        self._leases: Dict[int, _Lease] = {}
        self.granted = 0
        self.rejected = 0
        self.expired_grants = 0

    def try_acquire(self, key: int, holder: int, now: float) -> bool:
        lease = self._leases.get(key)
        if lease is not None and lease.expires_at > now:
            self.rejected += 1
            return False
        if lease is not None:
            self.expired_grants += 1
        self._leases[key] = _Lease(holder, now + self.lease_ns)
        self.granted += 1
        return True

    def holder_believes_valid(self, key: int, holder: int, now: float) -> bool:
        """Whether ``holder``'s (possibly skewed) clock says the lease
        still stands.  True while the manager has expired it == unsafe."""
        lease = self._leases.get(key)
        if lease is None or lease.holder != holder:
            return False
        return lease.expires_at + self.clock_skew_ns > now

    def release(self, key: int, holder: int) -> None:
        lease = self._leases.get(key)
        if lease is not None and lease.holder == holder:
            del self._leases[key]
