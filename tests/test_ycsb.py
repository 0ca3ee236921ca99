"""Tests for the YCSB workload suite and its registered experiments."""

import pytest

from repro.common.errors import ConfigError
from repro.experiments import registry, run_sweep
from repro.harness.cli import main
from repro.objstore.ring import HashRing
from repro.workloads.ycsb import (
    YCSB_MIXES,
    YCSB_SHARD_SCALING_SPEC,
    YcsbConfig,
    run_ycsb,
)


def tiny_cfg(**kw):
    defaults = dict(
        workload="B",
        distribution="uniform",
        n_shards=2,
        n_objects=64,
        duration_ns=40_000.0,
        warmup_ns=8_000.0,
        seed=3,
    )
    defaults.update(kw)
    return YcsbConfig(**defaults)


class TestConfig:
    def test_mixes_match_ycsb_core(self):
        assert YCSB_MIXES == {"A": 0.5, "B": 0.05, "C": 0.0}

    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_cfg(workload="Z").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(distribution="gaussian").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(warmup_ns=50_000.0).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(mechanism="bogus").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(distribution="zipfian", zipf_theta=2.0).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(warmup_ns=-1.0).validate()

    def test_write_fraction(self):
        assert tiny_cfg(workload="A").write_fraction == 0.5
        assert tiny_cfg(workload="C").write_fraction == 0.0


class TestWorkloads:
    def test_workload_c_is_read_only(self):
        result = run_ycsb(tiny_cfg(workload="C"))
        assert result.writes_completed == 0
        assert len(result.write_latency) == 0
        assert result.reads_completed > 0

    def test_workload_a_mixes_reads_and_writes(self):
        result = run_ycsb(tiny_cfg(workload="A"))
        assert result.writes_completed > 0
        assert result.reads_completed > 0
        assert result.mean_write_ns > 0

    def test_zipfian_concentrates_load_on_the_hot_shard(self):
        """Zipf rank 1 is object 0; the shard owning ``key-0`` must
        receive well over its fair share of routed reads."""
        cfg = tiny_cfg(
            n_shards=4,
            n_objects=256,
            distribution="zipfian",
            zipf_theta=1.2,
            duration_ns=80_000.0,
        )
        result = run_ycsb(cfg)
        ring = HashRing(range(cfg.n_shards), vnodes=cfg.vnodes, seed=cfg.seed)
        hot_shard = ring.replicas("key-0", 1)[0]
        routed = {row["shard"]: row["reads_routed"] for row in result.shard_rows}
        total = sum(routed.values())
        assert total > 0
        assert routed[hot_shard] > total / cfg.n_shards

    def test_sabre_audit_clean_under_write_heavy_mix(self):
        result = run_ycsb(tiny_cfg(workload="A", mechanism="sabre"))
        assert result.undetected_violations == 0

    def test_percl_mechanism_runs_against_sharded_store(self):
        result = run_ycsb(tiny_cfg(mechanism="percl_versions"))
        assert result.reads_completed > 0
        assert result.undetected_violations == 0


class TestSpecs:
    def test_registered(self):
        names = registry.names()
        assert "ycsb_latency" in names
        assert "ycsb_shard_scaling" in names

    def test_scaling_parallel_sweep_byte_identical_to_serial(self):
        axes = {"shards": (1, 2)}
        serial = run_sweep(YCSB_SHARD_SCALING_SPEC, scale=0.05, axes=axes)
        parallel = run_sweep(
            YCSB_SHARD_SCALING_SPEC, scale=0.05, axes=axes, jobs=2
        )
        assert repr(serial.rows) == repr(parallel.rows)

    def test_scaling_rows_shape(self):
        result = run_sweep(
            YCSB_SHARD_SCALING_SPEC, scale=0.05, axes={"shards": (2,)}
        )
        (row,) = result.rows
        assert row["shards"] == 2
        assert row["read_gbps"] > 0
        assert row["undetected_violations"] == 0

    def test_replication_clamped_to_single_shard(self):
        result = run_sweep(
            YCSB_SHARD_SCALING_SPEC, scale=0.05, axes={"shards": (1,)}
        )
        assert result.rows[0]["read_gbps"] > 0

    def test_cli_lists_ycsb_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ycsb_latency" in out
        assert "ycsb_shard_scaling" in out
