"""The version word and lock table of the atomicity variants (Table 1).

:mod:`repro.atomicity.locks` holds the odd/even version convention of
§4.2 that R2P2 (:mod:`repro.core`) and the software writers
(:mod:`repro.objstore`) share, and the shared-reader /
exclusive-writer :class:`~repro.atomicity.locks.ReaderWriterLockTable`
behind destination-side locking SABRes (R2P2 ``LOCKING`` mode).  The
software mechanisms' formats and checks are object layouts
(:mod:`repro.objstore.layout`), and each cell of Table 1 is one
registered read protocol (:mod:`repro.objstore.protocols`).
"""

from repro.atomicity.locks import ReaderWriterLockTable

__all__ = ["ReaderWriterLockTable"]
