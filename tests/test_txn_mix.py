"""Tests for the transactional workload mixes and their registered
experiments (abort rate vs. write fraction, shard scaling), including
the parallel-equals-serial determinism contract."""

import pytest

from repro.common.errors import ConfigError
from repro.experiments import registry, run_sweep
from repro.harness.cli import main
from repro.objstore.protocols import protocol_names
from repro.workloads.txn_mix import (
    PROTOCOL_VARIANTS,
    TXN_ABORT_RATE_SPEC,
    TXN_SHARD_SCALING_SPEC,
    TxnMixConfig,
    run_txn_mix,
)


def tiny_cfg(**kw):
    defaults = dict(
        txn_size=3,
        writes_per_txn=2,
        rmw_fraction=0.5,
        distribution="uniform",
        mechanism="sabre",
        n_shards=2,
        n_objects=32,
        duration_ns=50_000.0,
        warmup_ns=8_000.0,
        seed=3,
    )
    defaults.update(kw)
    return TxnMixConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_cfg(txn_size=0).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(txn_size=64, n_objects=32).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(writes_per_txn=4, txn_size=3).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(rmw_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(distribution="gaussian").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(mechanism="bogus").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(warmup_ns=60_000.0).validate()

    def test_variants_cover_every_registered_protocol(self):
        assert tuple(name for _label, name in PROTOCOL_VARIANTS) == protocol_names()


@pytest.mark.smoke
class TestWorkload:
    def test_read_only_mix_commits_without_aborts(self):
        result = run_txn_mix(tiny_cfg(rmw_fraction=0.0))
        assert result.commits > 0
        # Read-only transactions lock and apply nothing.
        rows = result.txn_rows
        assert sum(row["lock_rpcs"] + row["commit_rpcs"] for row in rows) == 0
        assert result.lock_aborts == 0
        assert result.undetected_violations == 0

    def test_rmw_mix_commits_and_advances_versions(self):
        result = run_txn_mix(tiny_cfg(rmw_fraction=1.0))
        assert result.commits > 0
        assert sum(row["commit_rpcs"] for row in result.txn_rows) > 0
        assert result.mean_commit_ns > 0
        assert result.undetected_violations == 0
        assert result.torn_reads_observed == 0

    def test_contention_produces_detected_aborts(self):
        """Hot keys + several sessions: conflicts must happen and be
        *detected* (aborts/retries), never leak to the audit."""
        result = run_txn_mix(
            tiny_cfg(
                n_objects=8,
                distribution="zipfian",
                zipf_theta=1.2,
                duration_ns=80_000.0,
            )
        )
        assert result.commits > 0
        assert result.lock_aborts + result.validation_aborts > 0
        assert result.undetected_violations == 0
        assert result.torn_reads_observed == 0

    def test_identical_seeds_reproduce_identical_results(self):
        a = run_txn_mix(tiny_cfg())
        b = run_txn_mix(tiny_cfg())
        assert a.commits == b.commits
        assert a.commit_latency.values == b.commit_latency.values
        assert a.txn_rows == b.txn_rows
        assert a.shard_rows == b.shard_rows


class TestSpecs:
    def test_registered(self):
        names = registry.names()
        assert "txn_abort_rate" in names
        assert "txn_shard_scaling" in names

    def test_abort_rate_parallel_sweep_byte_identical_to_serial(self):
        axes = {"rmw_fraction": (0.0, 0.75)}
        serial = run_sweep(TXN_ABORT_RATE_SPEC, scale=0.05, axes=axes)
        parallel = run_sweep(
            TXN_ABORT_RATE_SPEC, scale=0.05, axes=axes, jobs=4
        )
        assert repr(serial.rows) == repr(parallel.rows)

    def test_scaling_parallel_sweep_byte_identical_to_serial(self):
        axes = {"shards": (1, 2)}
        serial = run_sweep(TXN_SHARD_SCALING_SPEC, scale=0.05, axes=axes)
        parallel = run_sweep(
            TXN_SHARD_SCALING_SPEC, scale=0.05, axes=axes, jobs=4
        )
        assert repr(serial.rows) == repr(parallel.rows)

    def test_abort_rate_grows_with_write_fraction_under_sabre(self):
        axes = {"rmw_fraction": (0.0, 1.0)}
        result = run_sweep(TXN_ABORT_RATE_SPEC, scale=0.2, axes=axes)
        ro, wr = result.rows
        assert ro["sabre_abort_rate"] == 0.0
        assert wr["sabre_abort_rate"] > 0.0
        for label, _name in PROTOCOL_VARIANTS:
            if label == "remote":
                continue
            assert wr[f"{label}_violations"] == 0
            assert wr[f"{label}_torn_reads"] == 0

    def test_scaling_rows_shape(self):
        result = run_sweep(
            TXN_SHARD_SCALING_SPEC, scale=0.05, axes={"shards": (2,)}
        )
        (row,) = result.rows
        assert row["shards"] == 2
        assert row["commits_per_us"] > 0
        assert row["undetected_violations"] == 0

    def test_cli_lists_txn_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "txn_abort_rate" in out
        assert "txn_shard_scaling" in out
