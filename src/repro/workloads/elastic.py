"""Elastic workloads: live resharding and hotspot rebalancing under load.

Closed-loop readers, writers, and (optionally) transactions drive
:class:`~repro.objstore.sharded.ShardedKV` while a
:class:`~repro.objstore.reshard.ReshardManager` executes a planned
topology change mid-run — the ROADMAP item 4 elastic story: *scale the
deployment 4 -> 8 shards under load with zero torn reads, a bounded
tail-latency blip, and throughput converging to the fresh-8-shard
baseline.*  The run is metered in three phases:

* **pre** — steady state at the starting shard count (after warmup,
  before the change is scheduled);
* **mid** — the migration window (handoffs, double reads, writer
  redirects; the tail-latency blip lives here);
* **post** — after the drain, where placement is provably identical to
  a fresh deployment at the target count and throughput should match a
  run that *started* there.  ``run_elastic`` optionally runs that fresh
  baseline over the same post window and reports the convergence ratio.

The second story is **hotspot rebalancing**: a Zipfian-head key
concentrates reads on one shard; the manager's policy loop promotes
extra read replicas for it and lookups rotate over them, pulling the
max-over-mean shard imbalance back down.  Promotion is demoted again
when the interval share cools (``examples/elastic_scaling.py`` stops
the hot readers to show it; ``hotkey_rebalance``'s load never cools).

Two experiments register with the framework:

* ``elastic_scaling`` — every detecting mechanism through a mid-run
  4 -> 8 scale-out and a 4 -> 2 scale-in: zero undetected violations,
  post-convergence throughput ratio, migration accounting.
* ``hotkey_rebalance`` — the Zipfian mix with the rebalance policy off
  vs on: imbalance drops, promoted replicas absorb hot-key reads, and
  the detecting protocol still consumes zero torn reads.

Fault composition mirrors :mod:`repro.workloads.availability`: a
config can open gray or partition windows from the PR 7 schedules on
top of the migration — the nastiest planned-change lane the fuzzer
exercises.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.experiments import ExperimentSpec, QaCheck, Variant, register
from repro.faults import FaultInjector
from repro.objstore.protocols import DETECTING_VARIANTS
from repro.objstore.reshard import ReshardManager, ReshardStats
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.sim.stats import Samples
from repro.workloads.mix import (
    ServiceMixConfig,
    max_over_mean,
    service_roles,
    service_totals,
    spawn_clients,
)

#: When the topology change is scheduled and when the post-convergence
#: window opens, as fractions of ``duration_ns``.
SCALE_AT_FRAC = 0.30
POST_FRAC = 0.60


@dataclass
class ElasticConfig(ServiceMixConfig):
    """One elastic run: a mixed load plus a planned topology change.

    ``target_shards`` above ``n_shards`` is a scale-out (spare slots
    join), below is a scale-in (the highest members drain out), equal
    means no topology change (the rebalance-only lane).  The change is
    scheduled at :data:`SCALE_AT_FRAC` of ``duration_ns``; the post-
    convergence window opens at :data:`POST_FRAC`.  ``n_clients`` is an
    absolute count (not per-shard) so the elastic run and its fresh-
    target baseline drive identical load.  The fault lane's first
    window opens with the change, so it overlaps the migration window."""

    FAULT_FIRST_FRAC = SCALE_AT_FRAC

    target_shards: int = 8
    n_clients: int = 4
    txn_sessions_per_client: int = 0
    n_objects: int = 96
    duration_ns: float = 240_000.0
    warmup_ns: float = 5_000.0
    #: Hotspot policy: off by default; when on, the promote/demote loop
    #: runs from warmup to the end of the run.
    rebalance: bool = False
    max_extra_replicas: int = 2
    #: Run the fresh-target baseline over the same post window and
    #: report ``convergence_ratio`` (doubles the run cost; the parity
    #: artifacts and fuzz lanes switch it off).
    compare_baseline: bool = True

    def validate(self) -> None:
        super().validate()
        if self.n_clients < 1:
            raise ConfigError(
                "elastic runs pin an absolute client count >= 1 (the "
                "fresh-target baseline must drive identical load)"
            )
        if self.target_shards < self.replication:
            raise ConfigError(
                f"target_shards={self.target_shards} below "
                f"replication={self.replication}"
            )
        if self.warmup_ns >= SCALE_AT_FRAC * self.duration_ns:
            raise ConfigError("warmup must end before the topology change")
        if self.max_extra_replicas < 0:
            raise ConfigError("max_extra_replicas cannot be negative")


@dataclass
class ElasticResult:
    config: ElasticConfig
    #: Completed reads per phase (pre / migration / post windows).
    pre_reads: int
    mid_reads: int
    post_reads: int
    pre_writes: int
    mid_writes: int
    post_writes: int
    #: Read latency samples per phase (the mid/pre p95 ratio is the
    #: tail blip headline).
    pre_latency: Samples
    mid_latency: Samples
    post_latency: Samples
    #: Reads completed while a topology change was in flight.
    reads_during_migration: int
    commits: int
    undetected_violations: int
    torn_reads_observed: int
    retries: int
    fenced_rejects: int
    reshard_redirects: int
    crash_redirects: int
    reshard: ReshardStats
    hot_keys_promoted: int
    shard_rows: List[Dict[str, float]]
    events: List[Tuple[float, str, int]]
    #: Post-window reads of the fresh-target baseline (None when the
    #: config skipped the comparison run).
    baseline_post_reads: Optional[int]

    @property
    def convergence_ratio(self) -> float:
        """Post-window throughput relative to a run that *started* at
        the target shard count (1.0 = fully converged)."""
        if not self.baseline_post_reads:
            return math.nan
        return self.post_reads / self.baseline_post_reads

    @property
    def tail_blip(self) -> float:
        """Mid-migration p95 read latency over pre-migration p95."""
        pre = self.pre_latency.percentile(95.0)
        mid = self.mid_latency.percentile(95.0)
        if not pre or math.isnan(pre) or not mid or math.isnan(mid):
            return math.nan
        return mid / pre

    @property
    def shard_imbalance(self) -> float:
        """Max-over-mean routed reads across *member* shards."""
        return max_over_mean(
            [row["reads_routed"] for row in self.shard_rows if row["member"]]
        )


def run_elastic(cfg: ElasticConfig) -> ElasticResult:
    """Build the service + reshard manager (+ optional txn layer and
    fault injector) and run the phased closed-loop mix."""
    cfg.validate()
    max_shards = max(cfg.n_shards, cfg.target_shards)  # room to scale out
    with closing(ShardedKV(ShardedConfig.of(cfg, max_shards=max_shards))) as kv:
        manager = ReshardManager(kv)
        txns = TxnManager(kv) if cfg.txn_sessions_per_client else None
        FaultInjector(kv.cluster, cfg.fault_schedule())
        sim = kv.cluster.sim
        t_end = cfg.duration_ns
        t_scale = SCALE_AT_FRAC * cfg.duration_ns
        t_post = POST_FRAC * cfg.duration_ns

        if cfg.target_shards > cfg.n_shards:
            manager.scale_out(cfg.target_shards - cfg.n_shards, at_ns=t_scale)
        elif cfg.target_shards < cfg.n_shards:
            manager.scale_in(
                list(range(cfg.target_shards, cfg.n_shards)), at_ns=t_scale
            )
        if cfg.rebalance:
            sim.call_at(
                cfg.warmup_ns,
                lambda: manager.start_rebalancer(
                    cfg.max_extra_replicas, until_ns=t_end
                ),
            )

        phase_reads = {"pre": 0, "mid": 0, "post": 0}
        phase_writes = {"pre": 0, "mid": 0, "post": 0}
        latency = {
            "pre": Samples("elastic_read_pre_ns"),
            "mid": Samples("elastic_read_mid_ns"),
            "post": Samples("elastic_read_post_ns"),
        }
        migration_reads = [0]
        commits = [0]

        def phase() -> Optional[str]:
            if sim.now < cfg.warmup_ns or sim.now > t_end:
                return None
            if sim.now < t_scale:
                return "pre"
            if sim.now < t_post:
                return "mid"
            return "post"

        def on_read(ok, t0: float) -> None:
            p = phase()
            if ok and p:
                phase_reads[p] += 1
                latency[p].add(sim.now - t0)
                if manager.any_migrating():
                    migration_reads[0] += 1

        def on_write(ack) -> None:
            p = phase()
            if ack is not None and p:
                phase_writes[p] += 1

        def on_txn(outcome, _t0) -> None:
            if phase():
                commits[0] += int(outcome.committed)

        spawn_clients(
            sim,
            kv.cfg.clients,
            service_roles(kv, txns, cfg, on_read, on_write, on_txn),
        )

        sim.run()
        manager.stop_rebalancer()

        baseline_post: Optional[int] = None
        if cfg.compare_baseline and cfg.target_shards != cfg.n_shards:
            fresh = replace(
                cfg,
                n_shards=cfg.target_shards,
                target_shards=cfg.target_shards,
                compare_baseline=False,
            )
            baseline_post = run_elastic(fresh).post_reads

        totals = service_totals(kv)
        return ElasticResult(
            config=cfg,
            pre_reads=phase_reads["pre"],
            mid_reads=phase_reads["mid"],
            post_reads=phase_reads["post"],
            pre_writes=phase_writes["pre"],
            mid_writes=phase_writes["mid"],
            post_writes=phase_writes["post"],
            pre_latency=latency["pre"],
            mid_latency=latency["mid"],
            post_latency=latency["post"],
            reads_during_migration=migration_reads[0],
            commits=commits[0],
            undetected_violations=totals["undetected_violations"],
            torn_reads_observed=(
                txns.merged_stats().torn_reads_observed if txns else 0
            ),
            retries=totals["retries"],
            fenced_rejects=totals["fenced_rejects"],
            reshard_redirects=totals["reshard_redirects"],
            crash_redirects=totals["crash_redirects"],
            reshard=manager.stats,
            hot_keys_promoted=len(kv.hot_replicas),
            shard_rows=kv.shard_load(),
            events=list(manager.events),
            baseline_post_reads=baseline_post,
        )


# ----------------------------------------------------------------------
# registered experiments
# ----------------------------------------------------------------------

ELASTIC_HEADERS = (
    "target_shards",
    *(f"{label}_violations" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_convergence" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_migrated" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_post_reads" for label, _ in DETECTING_VARIANTS),
)


def _elastic_point(ctx) -> Dict[str, float]:
    result = run_elastic(ElasticConfig.from_params(ctx.params, ctx.scale))
    v = ctx.variant
    return {
        f"{v}_violations": result.undetected_violations,
        f"{v}_convergence": result.convergence_ratio,
        f"{v}_migrated": result.reshard.keys_migrated,
        f"{v}_post_reads": result.post_reads,
        f"{v}_tail_blip": result.tail_blip,
        f"{v}_redirects": result.reshard_redirects,
    }


ELASTIC_SCALING_SPEC = register(
    ExperimentSpec(
        name="elastic_scaling",
        description=(
            "Scale the deployment 4 -> 8 and 4 -> 2 shards mid-run: "
            "zero torn reads through the migration, bounded tail blip, "
            "post throughput converging to the fresh-target baseline"
        ),
        axes={"target_shards": (8, 2)},
        variants=tuple(
            Variant(label, {"mechanism": name})
            for label, name in DETECTING_VARIANTS
        ),
        defaults={"seed": 43},
        headers=ELASTIC_HEADERS,
        point_fn=_elastic_point,
        base_seed=43,
        qa_checks=tuple(
            QaCheck(f"{label}_violations", agg="max", hi=0.0)
            for label, _ in DETECTING_VARIANTS
        ),
    )
)


HOTKEY_HEADERS = (
    "max_extra_replicas",
    "reads",
    "shard_imbalance",
    "hot_promotions",
    "hot_demotions",
    "hot_keys_promoted",
    "undetected_violations",
)


def _hotkey_point(ctx) -> Dict[str, float]:
    result = run_elastic(ElasticConfig.from_params(ctx.params, ctx.scale))
    return {
        "reads": result.pre_reads + result.mid_reads + result.post_reads,
        "shard_imbalance": result.shard_imbalance,
        "hot_promotions": result.reshard.hot_promotions,
        "hot_demotions": result.reshard.hot_demotions,
        "hot_keys_promoted": result.hot_keys_promoted,
        "undetected_violations": result.undetected_violations,
    }


HOTKEY_REBALANCE_SPEC = register(
    ExperimentSpec(
        name="hotkey_rebalance",
        description=(
            "Zipfian-head keys gain promoted read replicas via the "
            "rebalance policy loop; shard imbalance drops and no "
            "consumed read is ever torn"
        ),
        axes={"max_extra_replicas": (0, 2)},
        defaults={
            # No topology change: the policy loop is the event.
            "target_shards": 4,
            "distribution": "zipfian",
            "rebalance": True,
            "compare_baseline": False,
            "n_objects": 64,
            "seed": 47,
        },
        headers=HOTKEY_HEADERS,
        point_fn=_hotkey_point,
        base_seed=47,
        qa_checks=(QaCheck("undetected_violations", agg="max", hi=0.0),),
    )
)
