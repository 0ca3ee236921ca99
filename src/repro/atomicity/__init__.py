"""Lock tables for the locking atomicity variants (Table 1).

:class:`~repro.atomicity.locks.ReaderWriterLockTable` is the shared-
reader / exclusive-writer state behind destination-side locking
SABRes (R2P2 ``LOCKING`` mode) and the timed writers that share it.
The software mechanisms' formats and checks are object layouts
(:mod:`repro.objstore.layout`), each cell of Table 1 is one registered
read protocol (:mod:`repro.workloads.protocols`), and the
destination-side hardware mechanism (LightSABRes) lives in
:mod:`repro.core`.
"""

from repro.atomicity.locks import ReaderWriterLockTable

__all__ = ["ReaderWriterLockTable"]
