"""Unit tests for repro.common.config (Table 2 defaults)."""

import dataclasses

import pytest

from repro.common.config import (
    CacheConfig,
    ClusterConfig,
    CoreConfig,
    FabricConfig,
    MemoryConfig,
    NocConfig,
    NodeConfig,
    RmcConfig,
    SabreConfig,
    SabreMode,
    default_cluster,
    sabre_cluster,
)
from repro.common.errors import ConfigError


def test_default_cluster_matches_table2():
    cfg = default_cluster()
    assert cfg.nodes == 2
    node = cfg.node
    assert node.cores.count == 16
    assert node.cores.freq_ghz == 2.0
    assert node.caches.block_bytes == 64
    assert node.caches.llc_bytes == 2 * 1024 * 1024
    assert node.memory.latency_ns == 50.0
    assert node.memory.channels == 4
    assert node.memory.channel_gbps == pytest.approx(25.6)
    assert node.noc.cycles_per_hop == 3
    assert node.rmc.backends == 4
    assert cfg.fabric.hop_latency_ns == 35.0
    assert cfg.fabric.link_gbps == 100.0


def test_sabre_defaults_match_section_5_1():
    sabre = SabreConfig()
    assert sabre.stream_buffers == 16
    assert sabre.stream_buffer_depth == 32
    # The paper reports 560 B of SRAM per R2P2 (16 x (24 + 11)).
    assert sabre.total_sram_bytes() == 560


def test_core_cycle_ns():
    assert CoreConfig().cycle_ns == pytest.approx(0.5)
    assert RmcConfig().cycle_ns == pytest.approx(1.0)


def test_cache_block_counts():
    caches = CacheConfig()
    assert caches.l1d_blocks == 512
    assert caches.llc_blocks == 32768


def test_memory_total_bandwidth():
    assert MemoryConfig().total_gbps == pytest.approx(102.4)


def test_noc_hop_latency():
    assert NocConfig().hop_ns == pytest.approx(1.5)


def test_validate_rejects_core_mesh_mismatch():
    node = dataclasses.replace(NodeConfig(), cores=CoreConfig(count=15))
    with pytest.raises(ConfigError):
        node.validate()


def test_validate_rejects_bad_page_size():
    node = dataclasses.replace(NodeConfig(), page_bytes=100)
    with pytest.raises(ConfigError):
        node.validate()


def test_sabre_cluster_switches_only_mode():
    cfg = default_cluster()
    for mode in (SabreMode.LOCKING, "locking"):
        other = sabre_cluster(mode=mode)
        assert other.node.sabre.mode is SabreMode.LOCKING
        sabre = dataclasses.replace(other.node.sabre, mode=SabreMode.SPECULATIVE)
        assert dataclasses.replace(other.node, sabre=sabre) == cfg.node
    assert cfg.node.sabre.mode is SabreMode.SPECULATIVE  # original untouched


def test_cluster_validate_rejects_zero_nodes():
    with pytest.raises(ConfigError):
        dataclasses.replace(ClusterConfig(), nodes=0).validate()


def test_fabric_config_defaults():
    fabric = FabricConfig()
    assert fabric.header_bytes == 16
