"""Transactional workload mixes over the sharded FaRM service.

YCSB-T-style closed-loop clients drive the transaction layer of
:mod:`repro.objstore.txn` with the two canonical shapes:

* **read-modify-write** transactions: read ``txn_size`` keys, write
  ``writes_per_txn`` of them (locked, validated, applied on each
  touched primary);
* **multi-key read-only** transactions: read ``txn_size`` keys and
  commit only if validation proves the snapshot was consistent.

``rmw_fraction`` sets the share of read-modify-write transactions and
key popularity is uniform or Zipfian (reusing
:mod:`repro.workloads.generators`), so hot-key contention — and with
it lock conflicts and validation aborts — is tunable the same way the
YCSB suite tunes it.  Every consumed read still flows through the
pluggable :class:`~repro.objstore.protocols.ReadProtocol`, so all
five Table 1 mechanisms run the exact same transactions.

Two experiments register with the framework:

* ``txn_abort_rate`` — abort rate vs. the write-transaction fraction,
  one variant per read mechanism, on a fixed 4-shard deployment.
* ``txn_shard_scaling`` — a 50/50 mix under SABRes while the rack
  grows 1 -> 8 shards: commit throughput should scale and the torn-
  read audit must stay clean.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.experiments import ExperimentSpec, Variant, register
from repro.objstore.protocols import PROTOCOL_VARIANTS
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.sim.stats import Samples, meter_window
from repro.workloads.mix import (
    DeploymentConfig,
    derive_shard_scaling,
    distinct_keys,
    service_totals,
    spawn_clients,
    txn_proc,
)

#: Transaction sessions per client node.
TXN_SESSIONS_PER_CLIENT = 2


@dataclass
class TxnMixConfig(DeploymentConfig):
    """One transactional-mix run against a sharded deployment."""

    txn_size: int = 4
    writes_per_txn: int = 2
    rmw_fraction: float = 0.5
    object_size: int = 256
    n_objects: int = 128
    warmup_ns: float = 20_000.0

    def validate(self) -> None:
        if self.txn_size < 1:
            raise ConfigError("transactions must touch at least one key")
        if self.txn_size > self.n_objects:
            raise ConfigError(
                f"txn_size {self.txn_size} exceeds the {self.n_objects}-object "
                "key space"
            )
        if not 0 <= self.writes_per_txn <= self.txn_size:
            raise ConfigError(
                f"writes_per_txn must be in [0, txn_size]: {self.writes_per_txn}"
            )
        if not 0.0 <= self.rmw_fraction <= 1.0:
            raise ConfigError(f"rmw_fraction must be in [0, 1]: {self.rmw_fraction}")
        super().validate()


@dataclass
class TxnMixResult:
    config: TxnMixConfig
    commit_latency: Samples
    commits: int
    attempts: int
    lock_aborts: int
    validation_aborts: int
    timeouts: int
    retries: int
    sabre_aborts: int
    software_conflicts: int
    undetected_violations: int
    torn_reads_observed: int
    txn_rows: List[Dict[str, int]]
    shard_rows: List[Dict[str, float]]

    @property
    def mean_commit_ns(self) -> float:
        return self.commit_latency.mean

    @property
    def abort_rate(self) -> float:
        """Aborted attempts over all attempts (timeouts excluded)."""
        if self.attempts <= 0:
            return math.nan
        return (self.lock_aborts + self.validation_aborts) / self.attempts

    @property
    def commits_per_us(self) -> float:
        window = self.config.duration_ns - self.config.warmup_ns
        return self.commits / window * 1e3


def run_txn_mix(cfg: TxnMixConfig) -> TxnMixResult:
    """Build the sharded service + txn layer and run the closed loop."""
    cfg.validate()
    with closing(ShardedKV(ShardedConfig.of(cfg))) as kv:
        manager = TxnManager(kv)
        sim = kv.cluster.sim
        t_end = cfg.duration_ns

        commit_latency = Samples("txn_commit_ns")
        # In-window counters, keyed by the TxnMixResult field they fill.
        window = {
            "commits": 0,
            "attempts": 0,
            "lock_aborts": 0,
            "validation_aborts": 0,
            "timeouts": 0,
            "retries": 0,
        }

        def observe(outcome, t0: float) -> None:
            if not cfg.warmup_ns <= sim.now <= t_end:
                return
            window["attempts"] += outcome.attempts
            window["lock_aborts"] += outcome.lock_aborts
            window["validation_aborts"] += outcome.validation_aborts
            window["timeouts"] += int(outcome.timed_out)
            # Transaction-level retry count (an attempt after an abort),
            # not the per-shard attribution the manager keeps — a 4-shard
            # txn retrying once is 1 retry here.
            window["retries"] += outcome.attempts - 1
            if outcome.committed:
                commit_latency.add(sim.now - t0)
                window["commits"] += 1

        def client(client: int, thread: int):
            rng = make_rng(cfg.seed, "txn-mix", client, thread)
            pick = cfg.picker((client, thread))

            def next_txn():
                keys = distinct_keys(kv, pick, cfg.txn_size)
                rmw = (
                    cfg.writes_per_txn > 0 and rng.random() < cfg.rmw_fraction
                )
                return keys, (keys[: cfg.writes_per_txn] if rmw else [])

            return txn_proc(
                sim, manager.session(client), next_txn, t_end, observe
            )

        spawn_clients(sim, kv.cfg.clients, [(TXN_SESSIONS_PER_CLIENT, client)])
        meters = [stats.meter for stats in kv.all_reader_stats()]
        sim.process(meter_window(sim, meters, cfg.warmup_ns, t_end))
        sim.run()

        totals = service_totals(kv)
        return TxnMixResult(
            config=cfg,
            commit_latency=commit_latency,
            **window,
            sabre_aborts=totals["sabre_aborts"],
            software_conflicts=totals["software_conflicts"],
            undetected_violations=totals["undetected_violations"],
            torn_reads_observed=manager.merged_stats().torn_reads_observed,
            txn_rows=manager.txn_rows(),
            shard_rows=kv.shard_load(),
        )


# ----------------------------------------------------------------------
# registered experiments
# ----------------------------------------------------------------------

#: Both specs shorten the config's default run.
_TXN_SPEC_WINDOW = {"duration_ns": 120_000.0, "warmup_ns": 15_000.0}

ABORT_HEADERS = (
    "rmw_fraction",
    *(f"{label}_abort_rate" for label, _name in PROTOCOL_VARIANTS),
    *(f"{label}_commits" for label, _name in PROTOCOL_VARIANTS),
)

SCALING_HEADERS = (
    "shards",
    "commits_per_us",
    "commit_ns",
    "abort_rate",
    "lock_aborts",
    "validation_aborts",
    "retries",
    "undetected_violations",
    "torn_reads_observed",
)


def _abort_rate_point(ctx) -> Dict[str, float]:
    result = run_txn_mix(TxnMixConfig.from_params(ctx.params, ctx.scale))
    v = ctx.variant
    return {
        f"{v}_abort_rate": result.abort_rate,
        f"{v}_commits": result.commits,
        f"{v}_violations": result.undetected_violations,
        f"{v}_torn_reads": result.torn_reads_observed,
    }


TXN_ABORT_RATE_SPEC = register(
    ExperimentSpec(
        name="txn_abort_rate",
        description="Txn abort rate vs. write fraction, per read mechanism",
        axes={"rmw_fraction": (0.0, 0.25, 0.5, 0.75, 1.0)},
        variants=tuple(
            Variant(label, {"mechanism": name})
            for label, name in PROTOCOL_VARIANTS
        ),
        defaults={**_TXN_SPEC_WINDOW, "distribution": "zipfian", "seed": 17},
        headers=ABORT_HEADERS,
        point_fn=_abort_rate_point,
    )
)


def _txn_scaling_point(ctx) -> Dict[str, float]:
    result = run_txn_mix(TxnMixConfig.from_params(ctx.params, ctx.scale))
    return {
        "commits_per_us": result.commits_per_us,
        "commit_ns": result.mean_commit_ns,
        "abort_rate": result.abort_rate,
        "lock_aborts": result.lock_aborts,
        "validation_aborts": result.validation_aborts,
        "retries": result.retries,
        "undetected_violations": result.undetected_violations,
        "torn_reads_observed": result.torn_reads_observed,
    }


TXN_SHARD_SCALING_SPEC = register(
    ExperimentSpec(
        name="txn_shard_scaling",
        description="Txn commit throughput under SABRes as shards grow 1->8",
        axes={"shards": (1, 2, 4, 8)},
        defaults={
            **_TXN_SPEC_WINDOW,
            "replication": 2,  # capped at the shard count by derive
            "seed": 19,
        },
        derive=derive_shard_scaling,
        headers=SCALING_HEADERS,
        point_fn=_txn_scaling_point,
    )
)
