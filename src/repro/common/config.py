"""System configuration mirroring Table 2 of the paper.

Every dataclass below corresponds to one row group of Table 2
("System parameters for simulation on Flexus").  Default values are the
paper's values; experiments override individual fields through
``dataclasses.replace``.  The last section is how a *run* config (the
microbenchmark, the FaRM build, a KV deployment) is layered over an
experiment point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Sequence

from repro.common.errors import ConfigError
from repro.common.units import CACHE_BLOCK, KB, MB


class SabreMode(Enum):
    """Destination-side concurrency-control variant implemented by the R2P2.

    ``SPECULATIVE``
        LightSABRes proper: version read overlapped with data reads,
        stream-buffer snooping guards the window of vulnerability (§3.3).
    ``NO_SPECULATION``
        The straw-man hardware SABRe of §3.2: the object's version is
        read and completed *before* any data access is issued.
    ``LOCKING``
        Destination-side shared reader locks (§3.2, Table 1 upper-right):
        the R2P2 acquires the object's reader lock, reads, releases.
    ``NAIVE_UNSAFE``
        The broken overlap of Fig. 2: data reads overlap the version
        read *without* coherence snooping.  Exists only to demonstrate
        that the race produces undetected torn reads; never use it.
    """

    SPECULATIVE = "speculative"
    NO_SPECULATION = "no_speculation"
    LOCKING = "locking"
    NAIVE_UNSAFE = "naive_unsafe"


@dataclass(frozen=True)
class CoreConfig:
    """ARM Cortex-A57-like cores (Table 2)."""

    count: int = 16
    freq_ghz: float = 2.0
    dispatch_width: int = 3
    rob_entries: int = 128

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class CacheConfig:
    """L1 / LLC parameters (Table 2)."""

    block_bytes: int = CACHE_BLOCK
    l1d_bytes: int = 32 * KB
    l1i_bytes: int = 48 * KB
    l1_latency_cycles: int = 3
    l1_mshrs: int = 32
    llc_bytes: int = 2 * MB
    llc_latency_cycles: int = 6
    llc_banks: int = 16

    @property
    def l1d_blocks(self) -> int:
        return self.l1d_bytes // self.block_bytes

    @property
    def llc_blocks(self) -> int:
        return self.llc_bytes // self.block_bytes


@dataclass(frozen=True)
class MemoryConfig:
    """DDR4 main memory (Table 2): 50 ns latency, 4 x 25.6 GBps."""

    latency_ns: float = 50.0
    channels: int = 4
    channel_gbps: float = 25.6
    #: Fixed controller overhead added to every DRAM access.  Calibrated
    #: so that the end-to-end average memory access latency observed by
    #: an on-chip agent is ~90 ns, the figure §5.1 quotes.
    controller_overhead_ns: float = 22.0

    @property
    def total_gbps(self) -> float:
        return self.channels * self.channel_gbps


@dataclass(frozen=True)
class NocConfig:
    """2D mesh on-chip interconnect (Table 2): 16 B links, 3 cycles/hop."""

    width: int = 4
    height: int = 4
    link_bytes: int = 16
    cycles_per_hop: int = 3
    freq_ghz: float = 2.0

    @property
    def hop_ns(self) -> float:
        return self.cycles_per_hop / self.freq_ghz


@dataclass(frozen=True)
class RmcConfig:
    """Remote Memory Controller (Table 2): three independent pipelines
    at 1 GHz; one RGP/RCP frontend per core; four backends and four
    R2P2s along the chip edge (Fig. 6)."""

    freq_ghz: float = 1.0
    backends: int = 4
    #: RGP backend occupancy per unrolled request, in RMC cycles.  Three
    #: cycles per 64 B request = 21.3 GBps per pipeline, matching the
    #: paper's 20 GBps per-R2P2 sustained-bandwidth target (§5.1) that
    #: its Little's-law stream-buffer sizing assumes.
    rgp_request_cycles: int = 3
    #: R2P2 occupancy per serviced cache block, in RMC cycles.  Same
    #: 20 GBps sustained-rate reasoning as ``rgp_request_cycles``.
    r2p2_block_cycles: int = 3
    #: Cost for a core to post a WQ entry (cacheable memory-mapped queue).
    wq_post_ns: float = 12.0
    #: RGP frontend poll-to-pickup delay for a new WQ entry.
    wq_pickup_ns: float = 10.0
    #: RCP frontend cost to write a CQ entry + core poll-to-notice delay.
    cq_write_ns: float = 8.0
    cq_poll_ns: float = 10.0

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class SabreConfig:
    """LightSABRes provisioning (Table 2 + §5.1 sizing discussion)."""

    mode: SabreMode = SabreMode.SPECULATIVE
    stream_buffers: int = 16
    stream_buffer_depth: int = 32
    #: Hardware retry on abort (rejected design, §5.1) vs exposing the
    #: failure to software through the CQ success field.  Retries are
    #: only possible before any reply has been sent (request-reply
    #: invariant) and are bounded by ``hardware_retry_limit``.
    hardware_retry: bool = False
    hardware_retry_limit: int = 4
    #: Destination-locking variant: delay between lock re-checks when
    #: the object is write-locked.
    lock_retry_ns: float = 30.0

    def att_entry_bytes(self) -> int:
        """24 B per ATT entry (§5.1)."""
        return 24

    def stream_buffer_bytes(self) -> int:
        """11 B per stream buffer (§5.1): tag, length, bitvector."""
        return 11

    def total_sram_bytes(self) -> int:
        """Total per-R2P2 SRAM requirement; the paper reports 560 B."""
        return self.stream_buffers * (
            self.att_entry_bytes() + self.stream_buffer_bytes()
        )


@dataclass(frozen=True)
class FabricConfig:
    """Inter-node network (Table 2): fixed 35 ns/hop, 100 GBps links."""

    hop_latency_ns: float = 35.0
    link_gbps: float = 100.0
    #: Per-packet header bytes (request/reply framing).
    header_bytes: int = 16


@dataclass(frozen=True)
class NodeConfig:
    """One soNUMA SoC node: 16-core chip + RMC + memory (Fig. 6)."""

    cores: CoreConfig = field(default_factory=CoreConfig)
    caches: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    rmc: RmcConfig = field(default_factory=RmcConfig)
    sabre: SabreConfig = field(default_factory=SabreConfig)
    #: Page size for registered regions.  soNUMA practice is superpages
    #: (§4.1); small pages are exercised by page-boundary tests.
    page_bytes: int = 2 * MB

    def validate(self) -> None:
        if self.cores.count != self.noc.width * self.noc.height:
            raise ConfigError(
                f"{self.cores.count} cores do not tile a "
                f"{self.noc.width}x{self.noc.height} mesh"
            )
        if self.page_bytes % self.caches.block_bytes:
            raise ConfigError("page size must be a multiple of the block size")
        if self.rmc.backends < 1:
            raise ConfigError("at least one RMC backend is required")


@dataclass(frozen=True)
class ClusterConfig:
    """A directly-connected soNUMA cluster (the paper models 2 nodes)."""

    nodes: int = 2
    node: NodeConfig = field(default_factory=NodeConfig)
    fabric: FabricConfig = field(default_factory=FabricConfig)

    def validate(self) -> None:
        if self.nodes < 1:
            raise ConfigError("cluster needs at least one node")
        self.node.validate()


def default_cluster() -> ClusterConfig:
    """The paper's evaluated system: two directly-connected 16-core
    chips with Table 2 parameters."""
    cfg = ClusterConfig()
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# run configs layered over experiment points
# ----------------------------------------------------------------------


def scaled_duration(base_ns: float, scale: float, floor_ns: float = 30_000.0) -> float:
    """Scale an experiment duration, keeping a useful minimum window."""
    return max(floor_ns, base_ns * scale)


#: Scalar field annotation -> the value types it takes (a bool is never
#: a number).  Fields of any other type are not checked.
_SCALAR_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_scalar(what: str, kind: str, value: Any) -> None:
    """Raise :class:`ConfigError` naming ``what`` unless ``value`` fits
    the scalar annotation ``kind`` (any other annotation fits all)."""
    types = _SCALAR_TYPES.get(kind)
    if types and (
        isinstance(value, bool) != (kind == "bool")
        or not isinstance(value, types)
    ):
        raise ConfigError(f"{what} must be {kind}, got {value!r}")


def check_scalars(cls, values: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigError` naming ``<cls>.<field>`` if a value in
    ``values`` (field name -> value) has the wrong type for a scalar
    field of the dataclass ``cls``."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    for name, value in values.items():
        kind = getattr(kinds[name], "__name__", kinds[name])
        check_scalar(f"{cls.__name__}.{name}", kind, value)


def check_choice(name: str, value: Any, choices: Sequence[Any]) -> Any:
    """``value``, or :class:`ConfigError` naming ``name`` if it is not
    one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{name} must be one of {tuple(choices)}, got {value!r}")
    return value


def from_fields(cls, values: Mapping[str, Any], **extra):
    """``cls`` built from every entry of ``values`` that names one of
    its fields, then ``extra`` (what the caller derives) on top: the
    one path from a parameter — a spec point's, or a field of another
    config — to a field.  An entry of the wrong type for a scalar field
    raises :class:`ConfigError` naming ``<cls>.<field>``."""
    names = {f.name for f in dataclasses.fields(cls)}
    picked = {k: v for k, v in values.items() if k in names}
    check_scalars(cls, picked)
    picked.update(extra)
    return cls(**picked)


def sabre_cluster(**fields: Any) -> ClusterConfig:
    """The default cluster with some SABRe-unit (:class:`SabreConfig`)
    fields replaced: how a derive hook turns a hardware-knob parameter
    into the point's cluster.  ``mode`` takes a :class:`SabreMode` or
    its value; a value outside the modes, or of the wrong type for a
    scalar field, raises :class:`ConfigError` naming
    ``SabreConfig.<field>``."""
    if "mode" in fields:
        mode = fields["mode"]
        if isinstance(mode, SabreMode):
            mode = mode.value
        modes = tuple(m.value for m in SabreMode)
        fields["mode"] = SabreMode(check_choice("SabreConfig.mode", mode, modes))
    check_scalars(SabreConfig, fields)
    cfg = ClusterConfig()
    sabre = dataclasses.replace(cfg.node.sabre, **fields)
    return dataclasses.replace(
        cfg, node=dataclasses.replace(cfg.node, sabre=sabre)
    )


class LayeredConfig:
    """Mixin for the run-config dataclasses (anything with a
    ``duration_ns`` field) an experiment point is turned into."""

    @classmethod
    def from_params(cls, params: Mapping[str, Any], scale: float, **extra):
        """Layer an experiment point over the config defaults
        (:func:`from_fields`) — so a spec's ``defaults`` state only
        what the experiment changes — with ``duration_ns`` scaled by
        the sweep's ``scale`` and ``extra`` winning over both."""
        duration = params.get("duration_ns", cls.duration_ns)
        check_scalars(cls, {"duration_ns": duration})
        extra.setdefault("duration_ns", scaled_duration(duration, scale))
        return from_fields(cls, params, **extra)
