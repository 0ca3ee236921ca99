"""Shared building blocks: units, configuration, cost models, errors."""

from repro.common.config import (
    CacheConfig,
    ClusterConfig,
    CoreConfig,
    FabricConfig,
    LayeredConfig,
    MemoryConfig,
    NocConfig,
    NodeConfig,
    RmcConfig,
    SabreConfig,
    SabreMode,
    scaled_duration,
)
from repro.common.errors import (
    AtomicityError,
    ConfigError,
    ReproError,
    SimulationError,
)
from repro.common.units import (
    CACHE_BLOCK,
    GHZ,
    KB,
    MB,
    gbps_to_bytes_per_ns,
)

__all__ = [
    "CACHE_BLOCK",
    "GHZ",
    "KB",
    "MB",
    "AtomicityError",
    "CacheConfig",
    "ClusterConfig",
    "ConfigError",
    "CoreConfig",
    "FabricConfig",
    "LayeredConfig",
    "MemoryConfig",
    "NocConfig",
    "NodeConfig",
    "ReproError",
    "RmcConfig",
    "SabreConfig",
    "SabreMode",
    "SimulationError",
    "gbps_to_bytes_per_ns",
    "scaled_duration",
]
