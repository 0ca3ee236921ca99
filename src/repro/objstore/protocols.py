"""Pluggable read protocols for the reader loops.

Each mechanism in Table 1's design space is one :class:`ReadProtocol`
strategy: it knows the object layout it stores (and with it the
software check and that check's cost), how to issue one one-sided
operation, and how to complete it — including any post-transfer
software check, retry bookkeeping, and the ground-truth torn-read
audit.  The reader loops —
:mod:`repro.workloads.microbench` and the sharded store's
:class:`~repro.objstore.session.ReaderSession` — are mechanism-agnostic
and bind a protocol to exactly what it reads (see
:class:`ReadProtocol`); adding a new scenario is a subclass plus
:func:`register_protocol`, never a fork of a loop.

Registered names double as the ``mechanism`` config values.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.common.costs import SoftwareCosts
from repro.common.errors import ConfigError
from repro.objstore.layout import (
    ChecksumLayout,
    ObjectLayout,
    PerCacheLineLayout,
    RawLayout,
    torn_words,
)
from repro.sim.stats import ReadStats

#: name -> protocol class, in registration order (order is part of the
#: public ``MECHANISMS`` tuple, so built-ins register in the legacy
#: order below).
_PROTOCOLS: Dict[str, Type["ReadProtocol"]] = {}


def register_protocol(cls: Type["ReadProtocol"]) -> Type["ReadProtocol"]:
    """Class decorator: make ``cls`` selectable by ``cls.name``."""
    if not getattr(cls, "name", None):
        raise ConfigError(f"protocol class {cls.__name__} needs a name")
    _PROTOCOLS[cls.name] = cls
    return cls


def protocol_names() -> Tuple[str, ...]:
    """All registered mechanism names, in registration order."""
    return tuple(_PROTOCOLS)


def get_protocol(name: str) -> Type["ReadProtocol"]:
    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise ConfigError(
            f"unknown mechanism {name!r}; choose from {protocol_names()}"
        ) from None


class ReadProtocol:
    """One atomic-read mechanism, bound to what it reads: the simulator,
    the reading (``src``) and data-owning (``dst``) nodes, the store on
    ``dst`` (laid out by :meth:`make_layout`), the application
    ``payload_len`` of every object, the software ``costs`` and the
    :class:`~repro.sim.stats.ReadStats` it records into.

    Subclasses override :meth:`make_layout` (format, software check and
    its cost), ``hardware`` (issue SABRes vs plain remote reads), and
    either the :meth:`complete` hook or — for protocols with a wholly
    different wire dance, like DrTM source locking — :meth:`read_once`
    itself (which reports whether it consumed a read).
    """

    #: registry key; also the ``mechanism`` config value.
    name = ""
    #: issue ``sabre_read`` (destination-side hardware) vs ``remote_read``.
    hardware = False

    def __init__(
        self,
        sim,
        src,
        dst,
        store,
        payload_len: int,
        costs: SoftwareCosts,
        stats: ReadStats,
    ):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.store = store
        self.payload_len = payload_len
        self.costs = costs
        self.stats = stats
        #: Observation carried by the most recent *consumed* read: the
        #: committed version the mechanism vouched for (for SABRes, the
        #: hardware-validated version from the completion) and the
        #: payload bytes.  The transaction layer reads these to build
        #: its read set; they are only meaningful right after
        #: :meth:`read_once` consumed a read.
        self.last_version: Optional[int] = None
        self.last_data: Optional[bytes] = None

    def observe(self, version: int, data: Optional[bytes]) -> None:
        """Record the consumed read's ``(version, payload)`` snapshot."""
        self.last_version = version
        self.last_data = data

    # -- construction hooks --------------------------------------------
    @staticmethod
    def make_layout(version_bits: int) -> ObjectLayout:
        """The layout the store keeps objects in for this mechanism."""
        return RawLayout()

    # -- shared helpers ------------------------------------------------
    @property
    def layout(self):
        return self.store.layout

    def issue(self, handle, wire: int, buf: int):
        """Post the one-sided operation; returns the completion event."""
        if self.hardware:
            return self.src.sabre_read(self.dst.node_id, handle.base_addr, wire, buf)
        return self.src.remote_read(self.dst.node_id, handle.base_addr, wire, buf)

    def audit(self, data: Optional[bytes]) -> None:
        """Ground-truth torn-read audit of a consumed payload."""
        if data is None:
            return
        torn, _words = torn_words(data)
        if torn:
            self.stats.undetected_violations += 1

    # -- synchronous reader loop ---------------------------------------
    def read_once(self, handle, buf: int, wire: int, t_end: float):
        """One complete operation (including §7.2's retry-same-object
        policy), as a simulation generator returning whether a read was
        consumed (``False``: ``t_end`` arrived first)."""
        sim = self.sim
        t0 = sim.now
        while True:
            yield self.costs.microbench_loop_ns
            result = yield self.issue(handle, wire, buf)
            if result.crashed:
                # Destination died under the transfer: the landing
                # buffer is undefined, so skip the completion hook (it
                # must never consume those bytes) and retry — the
                # caller re-routes once its deadline slice expires.
                self.stats.retries += 1
                if sim.now >= t_end:
                    return False
                continue
            ok, data = yield from self.complete(result, buf, wire)
            if ok:
                self.audit(data)
                self.stats.op_latency.add(sim.now - t0)
                self.stats.transfer_latency.add(result.timings.end_to_end_ns)
                self.stats.meter.record(self.payload_len)
                return True
            self.stats.retries += 1
            if sim.now >= t_end:
                return False

    def complete(self, result, buf: int, wire: int):
        """Post-transfer handling; yields any software-check simulation
        time and returns ``(ok, auditable_payload_or_None)``."""
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    # -- asynchronous (windowed) issue loop ----------------------------
    def async_ok(self, result) -> bool:
        """Classify an async completion; count failures.  Peak-bandwidth
        mode assumes post-transfer software is overlapped, so no check
        cost is charged here."""
        return True


@register_protocol
class RawRemoteReadProtocol(ReadProtocol):
    """Fig. 7's pure-transport baseline: a plain one-sided read with no
    atomicity enforcement (and hence no audit — torn data is expected)."""

    name = "remote_read"

    def complete(self, result, buf: int, wire: int):
        raw = self.src.read_local(buf, wire)
        strip = self.layout.unpack(raw, self.payload_len)
        # The observation is recorded (a transaction still needs the
        # version it saw), but the payload is returned as None: no
        # audit, torn data is this baseline's expected behavior.
        self.observe(strip.version, strip.data)
        return True, None
        yield  # pragma: no cover - generator marker


@register_protocol
class HardwareSabreProtocol(ReadProtocol):
    """LightSABRes: destination-side hardware atomicity (§4); the
    completion already carries the abort/commit verdict."""

    name = "sabre"
    hardware = True

    def complete(self, result, buf: int, wire: int):
        if not result.success:
            self.stats.sabre_aborts += 1
            return False, None
        raw = self.src.read_local(buf, wire)
        strip = self.layout.unpack(raw, self.payload_len)
        # Prefer the SABRe verdict's version (what the destination
        # hardware validated) over the transferred header.
        verdict = result.remote_version
        self.observe(strip.version if verdict is None else verdict, strip.data)
        yield self.costs.app_consume_ns(self.payload_len, "microbench")
        return True, strip.data

    def async_ok(self, result) -> bool:
        if result.success:
            return True
        self.stats.sabre_aborts += 1
        return False


class SoftwareCheckProtocol(ReadProtocol):
    """Base for source-side OCC mechanisms (Table 1's FaRM/Pilaf cells):
    transfer, then pay a size-dependent software check."""

    def complete(self, result, buf: int, wire: int):
        layout = self.layout
        yield layout.check_cost_ns(self.costs, self.payload_len)
        raw = self.src.read_local(buf, wire)
        strip = layout.unpack(raw, self.payload_len)
        if not strip.ok:
            self.stats.software_conflicts += 1
            return False, None
        self.observe(strip.version, strip.data)
        return True, strip.data


@register_protocol
class PerCacheLineVersionsProtocol(SoftwareCheckProtocol):
    """FaRM-style per-cache-line versions (§2.1)."""

    name = "percl_versions"

    @staticmethod
    def make_layout(version_bits):
        return PerCacheLineLayout(version_bits)


@register_protocol
class ChecksumProtocol(SoftwareCheckProtocol):
    """Pilaf-style whole-object checksums (§2.1)."""

    name = "checksum"

    @staticmethod
    def make_layout(version_bits):
        return ChecksumLayout()


@register_protocol
class DrtmLockProtocol(ReadProtocol):
    """Source-side locking (Table 1, DrTM cell): CAS-acquire the
    object's version word, read one-sidedly, write-release.

    Costs two extra network round trips versus a plain read — the
    drawback §2.1 calls out — but needs no post-transfer check."""

    name = "drtm_lock"

    def read_once(self, handle, buf: int, wire: int, t_end: float):
        sim = self.sim
        costs = self.costs
        payload_len = self.payload_len
        t0 = sim.now
        version_addr = self.store.version_addr(handle.obj_id)
        while True:
            yield costs.microbench_loop_ns
            probe = yield self.src.remote_read(
                self.dst.node_id, version_addr, 8, buf
            )
            if probe.crashed:
                self.stats.retries += 1
                if sim.now >= t_end:
                    return False
                continue
            observed = int.from_bytes(self.src.read_local(buf, 8), "little")
            if observed % 2 == 1:
                # Version word already locked (or mid-update): retry.
                self.stats.retries += 1
                if sim.now >= t_end:
                    return False
                continue
            cas = yield self.src.remote_cas(
                self.dst.node_id, version_addr, observed, observed + 1
            )
            if not cas.success:
                self.stats.retries += 1
                if sim.now >= t_end:
                    return False
                continue
            read = yield self.src.remote_read(
                self.dst.node_id, handle.base_addr, wire, buf
            )
            if read.crashed:
                # The destination died holding our source lock; the
                # lock dies with it (recovery re-syncs a committed
                # image), so just retry elsewhere after the deadline.
                self.stats.retries += 1
                if sim.now >= t_end:
                    return False
                continue
            raw = self.src.read_local(buf, wire)
            # Restore the pre-lock version (pure read: no version bump).
            # A crash here is fine for the same reason as above.
            yield self.src.remote_write(
                self.dst.node_id, version_addr, observed.to_bytes(8, "little")
            )
            self.observe(observed, bytes(raw[8 : 8 + payload_len]))
            self.audit(bytes(raw[8 : 8 + payload_len]))
            yield costs.app_consume_ns(payload_len, "microbench")
            self.stats.op_latency.add(sim.now - t0)
            self.stats.transfer_latency.add(read.timings.end_to_end_ns)
            self.stats.meter.record(payload_len)
            return True


#: Experiment-variant label -> registered protocol name, in
#: registration (Table 1) order; the per-mechanism service specs
#: build their variants and column headers from it.
PROTOCOL_VARIANTS = (
    ("remote", "remote_read"),
    ("sabre", "sabre"),
    ("percl", "percl_versions"),
    ("checksum", "checksum"),
    ("drtm", "drtm_lock"),
)

#: The mechanisms whose consumed reads must never be torn (the
#: ``remote_read`` baseline is excluded by design: it tears).
DETECTING_VARIANTS = tuple(
    (label, name) for label, name in PROTOCOL_VARIANTS if name != "remote_read"
)
