"""The four benchmark workloads, each as one deterministic *cycle*.

A cycle is a fixed amount of work that is a pure function of the seed:
``run.py`` repeats it to fill the measuring time, takes every simulated
(virtual-ns) number from its :class:`Outcome` — which must come out
identical on every repeat — and every host-clock number from timing the
repeats.  Everything here goes through the program's public entry
points (``run_ycsb``, ``run_txn_mix``, ``run_failover_mix``,
``run_elastic``, ``fuzz_round``, ``run_microbench``, ``CampaignRunner``,
``SimBridge.replay``, the ``repro-serve`` process); nothing reaches
into a cluster object.

Why these four (the short form is in BENCHMARK.json):

* ``paper_figs`` — the researcher's entry point and the paper's
  large-object regime: 128 blocks per op and a pending-event set
  thousands deep, so sim/core/mem/noc/fabric/experiments do nearly all
  the work and objstore.sharded/txn/sonuma.rpc do none.  The only
  workload that can be checked against the paper's numbers.
* ``kv_mixed`` — the healthy sharded service on small objects (4 blocks
  per op): the per-block chain is minor and RPCs, the store/txn
  protocol, key generators and client loops are in front.  Writes and
  transactions sit beside reads so a read-path gain that costs the
  write/lock path shows.  Shallow event queue: an engine deep-queue fix
  predicts *no change* here.
* ``chaos_elastic`` — the same service on its failure paths (crash/
  promote/recover, gray windows, live 4->8 reshard, crash-lane fuzz):
  faults, failover, reshard, RPC watchdogs and the engine's
  cancel/compact path, which no healthy workload touches.
* ``serve_http`` — the only wall-clock, socket-to-socket path: serve,
  loadgen and asyncio appear only here; the in-process replay of the
  same op mix splits bridge + simulation from gateway cost and supplies
  deterministic virtual latencies.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.experiments import (
    CampaignRunner,
    CampaignSpec,
    CampaignStage,
    SerialExecutor,
    execute_point,
    registry,
)
from repro.experiments.context import CampaignContext
from repro.harness.report import scaled_duration
from repro.loadgen.trace import TraceConfig, build_trace
from repro.serve.bridge import SimBridge
from repro.serve.ops import ArrivalTrace, merge_sorted
from repro.serve.settings import ServeSettings
from repro.workloads.availability import FailoverMixConfig, run_failover_mix
from repro.workloads.elastic import ElasticConfig, run_elastic
from repro.workloads.fuzz import fuzz_round
from repro.workloads.microbench import MicrobenchConfig, run_microbench
from repro.workloads.txn_mix import TxnMixConfig, run_txn_mix
from repro.workloads.ycsb import YcsbConfig, run_ycsb

import httpload

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(HERE), "src")
RESULTS_DIR = os.path.join(HERE, "results")


@dataclass
class Outcome:
    """What one cycle produced.  Everything but ``host`` is exact for a
    seed and is compared across repeats."""

    #: Completed application ops (reads + writes + commits).
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: Virtual-ns latency samples per op kind.
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    txns: List[float] = field(default_factory=list)
    goodput_gbps: float = 0.0
    #: Counts the public results expose, summed over the cycle.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Failed correctness checks; any entry fails the run.
    problems: List[str] = field(default_factory=list)
    #: Extra exact values printed beside the metrics.
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Host-clock measurements taken inside the cycle (not exact).
    host: Dict[str, float] = field(default_factory=dict)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def exact(self) -> Dict[str, Any]:
        """The part that must repeat bit for bit."""
        out = dict(vars(self))
        del out["host"]
        return out


def percentile(samples: List[float], p: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def check_clean(out: Outcome, label: str, result: Any) -> None:
    """The atomicity check every result goes through: no consumed read
    may be torn, wherever the result reports it (the reader-side audit,
    the transaction-side audit, or a per-shard row)."""
    torn = getattr(result, "undetected_violations", 0)
    torn += getattr(result, "torn_reads_observed", 0)
    for row in getattr(result, "shard_rows", ()):
        torn += row["undetected_violations"]
    if torn:
        out.problems.append(f"{label}: {torn} torn reads consumed")


def unguarded_control(seed: int) -> Outcome:
    """Anti-vacuity control for :func:`check_clean`: ``remote_read``
    enforces nothing, so with 8 writers tearing 32-block objects the
    same checker must report a problem.  (``remote_read`` skips the
    reader-side audit by design — its tearing shows in the
    transaction-side ``torn_reads_observed``.)"""
    out = Outcome()
    result = run_failover_mix(
        FailoverMixConfig(
            mechanism="remote_read",
            cycles=0,
            writers_per_client=2,  # x 4 client nodes
            object_size=2048,
            n_objects=8,
            duration_ns=30_000.0,
            warmup_ns=1_000.0,
            write_pause_ns=0.0,
            seed=seed,
        )
    )
    check_clean(out, "remote_read control", result)
    return out


@dataclass
class Workload:
    name: str
    #: ``setup(seed, smoke, profile_path)`` -> context manager yielding
    #: what the cycles share; everything before the first timed op.
    setup: Callable[..., Any]
    #: ``cycle(ctx, seed)`` -> :class:`Outcome`, a pure function of
    #: ``seed`` apart from ``Outcome.host``.
    cycle: Callable[[Any, int], Outcome]
    #: A run draws this many seeds from ``--seed``, runs one cycle on
    #: each (then round again while time remains) and pools their
    #: samples, so one seed's luck — which key is hot on which shard,
    #: when a crash lands — moves a run's numbers less.
    seeds_per_run: int


# ----------------------------------------------------------------------
# paper_figs
# ----------------------------------------------------------------------

#: (measurement window = scaled duration - warmup) of the throughput
#: figures, mirroring the constants in ``repro.harness.fig*``; reads
#: completed in the window are reconstructed as goodput x window /
#: payload, which must come out whole (checked) — so a change to those
#: constants fails the run instead of skewing ``host_us_per_op``.
_THROUGHPUT_WINDOWS = {
    # stage: (base duration ns, warmup ns, goodput columns)
    "fig7b": (80_000.0, 10_000.0, ("remote_read_gbps", "sabre_gbps")),
    "fig8": (120_000.0, 15_000.0, ("sabre_gbps", "percl_gbps")),
    "fig9b": (150_000.0, 10_000.0, ("percl_gbps", "sabre_gbps")),
    "fig10": (120_000.0, 15_000.0, ("percl_gbps", "unmodified_gbps")),
}
PAPER_SCALE = 0.25  # the scale benchmarks/ asserts its bands at


def _paper_stages(seed: int, smoke: bool) -> List[CampaignStage]:
    if smoke:
        grid = {
            "fig7a": {"object_size": (64,)},
            "fig10": {"object_size": (8192,)},
        }
    else:
        grid = {
            "fig7a": {"object_size": (64, 128, 8192)},
            "fig7b": {"object_size": (8192,)},
            "fig8": {"object_size": (8192,), "writers": (8,)},
            "fig9a": {"object_size": (128, 8192)},
            "fig9b": {"object_size": (1024,)},
            "fig10": {"object_size": (128, 1024, 8192)},
        }
    return [
        CampaignStage(name, axes=axes, overrides={"seed": seed}, base_seed=seed)
        for name, axes in grid.items()
    ]


class _TimedSerial(SerialExecutor):
    """Serial execution that also adds up the CPU spent inside points,
    so the campaign layer's own overhead can be told apart."""

    def __init__(self) -> None:
        self.points = 0
        self.point_cpu_s = 0.0

    def run(self, spec, points, scale):
        for point in points:
            c0 = time.process_time()
            fragment = execute_point(spec, point, scale)
            self.point_cpu_s += time.process_time() - c0
            self.points += 1
            yield point.index, fragment


def _band(misses: List[str], name: str, value: float, lo: float, hi: float) -> None:
    if not lo <= value <= hi:
        misses.append(f"{name}={value:.4g} outside [{lo}, {hi}]")


def paper_bands(rows: Dict[str, List[dict]]) -> tuple:
    """The bands ``benchmarks/test_fig{7a,7b,8,9a,9b,10}_*.py`` assert,
    restricted to the points run.  Returns ``(misses, errors)``:
    ``errors`` are relative errors against the paper's point values
    those files annotate."""
    misses: List[str] = []
    errors: Dict[str, float] = {}
    for row in rows.get("fig7a", ()):
        size, rr = row["object_size"], row["remote_read_ns"]
        if size == 64:
            _band(misses, "fig7a.single_block_gap", abs(row["sabre_ns"] - rr) / rr, 0.0, 0.1)
        if size == 128:
            _band(misses, "fig7a.nospec_penalty", row["sabre_no_spec_ns"] / row["sabre_ns"] - 1.0, 0.2, 0.6)
        if size == 8192:
            _band(misses, "fig7a.pinning_gap", row["sabre_ns"] / rr - 1.0, 0.0, 0.2)
    for row in rows.get("fig7b", ()):
        _band(misses, "fig7b.sabre_vs_remote", row["sabre_gbps"] / row["remote_read_gbps"], 0.8, 1.2)
        if row["object_size"] == 8192:
            _band(misses, "fig7b.peak_gbps", row["sabre_gbps"], 40.0, 100.0)
    for row in rows.get("fig8", ()):
        _band(misses, "fig8.sabre_advantage", row["sabre_advantage"], 1e-9, float("inf"))
    by9a = {(r["object_size"], r["build"]): r for r in rows.get("fig9a", ())}
    gains = {}
    for size, lo, hi, paper in ((128, 0.2, 0.5, 0.35), (8192, 0.35, 0.7, 0.52)):
        if (size, "sabre") not in by9a:
            continue
        sabre, percl = by9a[(size, "sabre")], by9a[(size, "percl")]
        if not (
            sabre["stripping_ns"] == 0.0
            and sabre["framework_ns"] < percl["framework_ns"]
            and sabre["application_ns"] > percl["application_ns"]
        ):
            misses.append(f"fig9a.breakdown_shape at {size} B")
        gains[size] = percl["total_ns"] / sabre["total_ns"] - 1.0
        _band(misses, f"fig9a.improvement_{size}", gains[size], lo, hi)
        errors[f"fig9a_{size}"] = gains[size] / paper - 1.0
    if len(gains) == 2 and not gains[8192] > gains[128]:
        misses.append("fig9a.improvement does not grow with size")
    for row in rows.get("fig9b", ()):
        _band(misses, "fig9b.improvement", row["improvement"], 0.15, 0.9)
        # Paper: 30-60 %; error is the distance outside that interval.
        imp = row["improvement"]
        errors[f"fig9b_{row['object_size']}"] = min(imp - 0.30, 0.0) + max(imp - 0.60, 0.0)
    speedups = []
    for row in rows.get("fig10", ()):
        speedups.append(row["speedup"])
        band = {128: (1.05, 1.5, 1.20), 1024: (1.2, 1.8, 1.53), 8192: (1.6, 2.6, 2.1)}
        if row["object_size"] in band:
            lo, hi, paper = band[row["object_size"]]
            _band(misses, f"fig10.speedup_{row['object_size']}", row["speedup"], lo, hi)
            errors[f"fig10_{row['object_size']}"] = row["speedup"] / paper - 1.0
    if speedups != sorted(speedups):
        misses.append("fig10.speedup not monotone in size")
    return misses, errors


@contextmanager
def _paper_setup(seed: int, smoke: bool, profile_path: Optional[str] = None):
    registry.load_builtin()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    root = tempfile.mkdtemp(prefix="campaign-", dir=RESULTS_DIR)
    try:
        yield {"smoke": smoke, "root": root}
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _paper_cycle(ctx, seed: int) -> Outcome:
    smoke = ctx["smoke"]
    out = Outcome()
    campaign = CampaignSpec(
        "bench", _paper_stages(seed, smoke), scale=PAPER_SCALE
    )
    root = tempfile.mkdtemp(dir=ctx["root"])
    executor = _TimedSerial()
    c0 = time.process_time()
    first = CampaignRunner(
        campaign, executor=executor, context=CampaignContext(root)
    ).run()
    campaign_cpu = time.process_time() - c0
    # The same request again, now served from the journal on disk.
    again = _TimedSerial()
    t0 = time.perf_counter()
    second = CampaignRunner(
        campaign, executor=again, context=CampaignContext(root)
    ).run()
    resume_s = time.perf_counter() - t0
    shutil.rmtree(root)

    rows: Dict[str, List[dict]] = {}
    for stage in first.stages:
        rows[stage.stage] = stage.result.rows
        if stage.verdict == "fail":
            out.problems.append(f"stage {stage.stage}: QA verdict fail")
    points = executor.points
    if again.points or second.journal_hits != points:
        out.problems.append(
            f"journal re-run executed {again.points} points, "
            f"{second.journal_hits} hits of {points}"
        )
    dumps = [
        json.dumps([s.result.rows_json_dict() for s in run.stages], sort_keys=True)
        for run in (first, second)
    ]
    if dumps[0] != dumps[1]:
        out.problems.append("journal re-run rows differ from the first run")

    sabre_bytes = 0.0
    sabre_window_ns = 0.0
    for stage, (base_ns, warmup_ns, columns) in _THROUGHPUT_WINDOWS.items():
        window = scaled_duration(base_ns, PAPER_SCALE) - warmup_ns
        for row in rows.get(stage, ()):
            payload = row["object_size"] - 8
            for column in columns:
                reads = row[column] * window / payload
                if abs(reads - round(reads)) > 1e-6:
                    out.problems.append(
                        f"{stage}.{column}: {reads} reads in the window is "
                        "not whole; _THROUGHPUT_WINDOWS is out of date"
                    )
                out.ops += round(reads)
                if column == "sabre_gbps":
                    sabre_bytes += row[column] * window
                    sabre_window_ns += window
                    out.count("sabres", round(reads))
            if "sabre_aborts" in row:
                out.count("sabres", row["sabre_aborts"])
                out.count("sabre_aborts", row["sabre_aborts"])
            if stage == "fig7b" and row["object_size"] == 8192:
                out.notes["fig7b_8k_sabre_gbps"] = row["sabre_gbps"]

    # Read latency under conflicts, which campaign rows only give as
    # means: Fig. 8's 1 KB point with 8 writers, run directly.
    direct = run_microbench(
        MicrobenchConfig(
            mechanism="sabre",
            object_size=1024,
            n_objects=100,
            readers=16,
            writers=8,
            duration_ns=6_000.0 if smoke else 40_000.0,
            warmup_ns=1_000.0 if smoke else 5_000.0,
            writer_think_ns=1500.0,
            seed=seed,
        )
    )
    check_clean(out, "fig8 1 KB direct", direct)
    out.reads = direct.op_latency.values
    out.ops += len(out.reads)
    out.count("sabres", direct.destination_counters.get("sabre_registrations", 0))
    out.count("sabre_aborts", direct.destination_counters.get("sabre_aborts", 0))
    out.count("retries", direct.retries)
    # SABRe goodput pooled over the campaign's remote throughput points
    # (Fig. 7b's 8 KB point alone is fabric-limited to one value).
    sabre_bytes += direct.goodput_gbps * (direct.config.duration_ns - direct.config.warmup_ns)
    sabre_window_ns += direct.config.duration_ns - direct.config.warmup_ns
    out.goodput_gbps = sabre_bytes / sabre_window_ns
    out.attempted = out.ops

    misses, errors = paper_bands(rows)
    out.problems.extend(f"paper band missed: {m}" for m in misses)
    out.counters["paper_band_misses"] = len(misses)
    out.counters["points"] = points
    out.notes["paper_point_error"] = {k: round(v, 4) for k, v in errors.items()}
    out.host["campaign_cpu_s"] = campaign_cpu
    out.host["point_cpu_s"] = executor.point_cpu_s
    out.host["resume_ms"] = resume_s * 1e3
    return out


# ----------------------------------------------------------------------
# kv_mixed
# ----------------------------------------------------------------------


@contextmanager
def _sim_setup(seed: int, smoke: bool, profile_path: Optional[str] = None):
    registry.load_builtin()
    yield {"smoke": smoke}


#: Per-shard columns (``shard_load()`` rows, ``repro_shard_*`` series)
#: folded into cycle counters.
_SHARD_COLUMNS = {
    "reads_routed": "sabres",
    "sabre_aborts": "sabre_aborts",
    "retries": "retries",
    "write_retries": "retries",
    "fallback_reads": "fallback_reads",
    "lock_spins": "lock_spins",
    "writes_routed": "writes_routed",
    "crash_redirects": "redirects",
    "reshard_redirects": "redirects",
}


def _shard_counters(out: Outcome, column_total: Callable[[str], float]) -> None:
    for column, counter in _SHARD_COLUMNS.items():
        out.count(counter, column_total(column))
    # Every abort is re-issued inside the same routed attempt.
    out.count("sabres", column_total("sabre_aborts"))


def _row_total(rows: List[dict]) -> Callable[[str], float]:
    return lambda column: sum(row[column] for row in rows)


def _kv_cycle(ctx, seed: int) -> Outcome:
    smoke = ctx["smoke"]
    out = Outcome()
    # Durations give >= 1 100 samples of every op kind, so a p99 has
    # ten samples beyond it.
    ycsb = run_ycsb(
        YcsbConfig(
            workload="A",
            distribution="zipfian",
            zipf_theta=0.99,
            mechanism="sabre",
            n_shards=4,
            replication=2,
            object_size=256,
            n_objects=2048,
            duration_ns=20_000.0 if smoke else 300_000.0,
            warmup_ns=2_000.0 if smoke else 15_000.0,
            seed=seed,
        )
    )
    check_clean(out, "ycsb", ycsb)
    out.reads = ycsb.read_latency.values
    out.writes = ycsb.write_latency.values
    out.goodput_gbps = ycsb.read_goodput_gbps
    out.ops += len(out.reads) + len(out.writes)
    _shard_counters(out, _row_total(ycsb.shard_rows))

    txn = run_txn_mix(
        TxnMixConfig(
            txn_size=4,
            writes_per_txn=2,
            rmw_fraction=0.5,
            # Uniform keys: under Zipfian skew two read-modify-write
            # transactions whose read and write sets cross spin on each
            # other's locks until the run ends (1 seed in 10), and the
            # run measures the stall instead of the protocol.
            distribution="uniform",
            mechanism="sabre",
            n_shards=4,
            replication=2,
            object_size=256,
            n_objects=2048,
            duration_ns=30_000.0 if smoke else 550_000.0,
            warmup_ns=3_000.0 if smoke else 20_000.0,
            seed=seed,
        )
    )
    check_clean(out, "txn_mix", txn)
    out.txns = txn.commit_latency.values
    out.ops += txn.commits
    out.failed += txn.timeouts
    out.count("txn_attempts", txn.attempts)
    out.count("txn_aborts", txn.lock_aborts + txn.validation_aborts)
    out.count("internal_failures", txn.timeouts)
    _shard_counters(out, _row_total(txn.shard_rows))
    out.attempted = out.ops + out.failed
    return out


# ----------------------------------------------------------------------
# chaos_elastic
# ----------------------------------------------------------------------

FUZZ_ROUNDS = 12


def _chaos_cycle(ctx, seed: int) -> Outcome:
    smoke = ctx["smoke"]
    out = Outcome()
    duration = 24_000.0 if smoke else 150_000.0
    read_bytes = 0.0
    window_ns = 0.0
    crash = FailoverMixConfig(duration_ns=duration, cycles=3, seed=seed)
    gray = FailoverMixConfig(
        duration_ns=duration,
        cycles=0,
        distribution="zipfian",
        fault_kind="gray",
        fault_windows=3,
        gray_multiplier=8.0,
        seed=seed,
    )
    for label, cfg in (("failover", crash), ("gray", gray)):
        result = run_failover_mix(cfg)
        check_clean(out, label, result)
        if result.recoveries != result.crashes or result.crashes != cfg.cycles:
            out.problems.append(
                f"{label}: {result.crashes} crashes, {result.recoveries} "
                f"recoveries, planned {cfg.cycles}"
            )
        out.reads += result.read_latency.values
        out.ops += result.reads_completed + result.writes_completed + result.commits
        read_bytes += result.reads_completed * cfg.object_size
        window_ns += cfg.duration_ns - cfg.warmup_ns
        out.count(
            "internal_failures",
            result.failed_rpcs + result.failed_transfers + result.crash_aborts,
        )
        out.count("txn_attempts", result.commits + result.crash_aborts + result.lock_aborts + result.validation_aborts)
        out.count("txn_aborts", result.lock_aborts + result.validation_aborts)
        out.count("fault_windows", result.fault_windows)
        out.count("watchdog_rearms", result.watchdog_rearms)
        out.count("partition_refusals", result.partition_refusals)
        _shard_counters(out, _row_total(result.shard_rows))

    ecfg = ElasticConfig(
        n_shards=4,
        target_shards=8,
        duration_ns=24_000.0 if smoke else 160_000.0,
        compare_baseline=False,
        seed=seed,
    )
    elastic = run_elastic(ecfg)
    check_clean(out, "elastic", elastic)
    if elastic.reshard.shards_added != 4:
        out.problems.append(
            f"elastic: {elastic.reshard.shards_added} shards joined, wanted 4"
        )
    reads = elastic.pre_reads + elastic.mid_reads + elastic.post_reads
    writes = elastic.pre_writes + elastic.mid_writes + elastic.post_writes
    for samples in (elastic.pre_latency, elastic.mid_latency, elastic.post_latency):
        out.reads += samples.values
    out.ops += reads + writes + elastic.commits
    read_bytes += reads * ecfg.object_size
    window_ns += ecfg.duration_ns - ecfg.warmup_ns
    out.count("keys_migrated", elastic.reshard.keys_migrated)
    _shard_counters(out, _row_total(elastic.shard_rows))

    for i in range(1 if smoke else FUZZ_ROUNDS):
        fuzz = fuzz_round(
            "sabre", 4, seed=seed * 1000 + i, crash_cycles=3,
            duration_ns=15_000.0 if smoke else 30_000.0,
        )
        check_clean(out, f"fuzz round {i}", fuzz)
        if fuzz.recoveries != fuzz.crashes:
            out.problems.append(f"fuzz round {i}: a crashed shard never recovered")
        out.ops += fuzz.reads_consumed
        out.count("internal_failures", fuzz.crash_disruptions)
        out.count("watchdog_rearms", fuzz.watchdog_rearms)
        out.count("partition_refusals", fuzz.partition_refusals)
        # The round's shard_load() rows close its public fingerprint.
        _shard_counters(out, _row_total(fuzz.fingerprint[-1]))
    out.goodput_gbps = read_bytes / window_ns
    out.attempted = out.ops
    return out


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------

#: Virtual offered rate of the in-process replay: below the 32 M req/s
#: saturation knee docs/serving.md measures.
REPLAY_QPS = 4_000_000.0
OPEN_LOOP_RATES = (200, 400, 800, 1200)
#: ``serve.max_rate_ok``: p99 from due time within this, and achieved
#: at least this share of offered.
RATE_OK_P99_MS = 20.0
RATE_OK_ACHIEVED = 0.97


def serve_trace(seed: int, n_ops: int) -> ArrivalTrace:
    """YCSB-B over Zipfian keys, plus 5 % 2-read/1-write transactions
    over uniform keys.

    With the transactions Zipfian too, two of them that each read a key
    the other writes, launched together, abort each other on all
    ``txn_max_attempts`` attempts (both retry at once) and answer
    ``conflict``/409: 4 replays in 160, and about one HTTP request in
    20 000.  A timing baseline needs a workload on which no op fails;
    with uniform transaction keys 160 replays in 160 are clean."""
    n_txns = n_ops // 20
    plain = build_trace(
        TraceConfig(
            qps=REPLAY_QPS * 0.95,
            n_ops=n_ops - n_txns,
            workload="B",
            distribution="zipfian",
            seed=seed,
        )
    )
    txns = build_trace(
        TraceConfig(
            qps=REPLAY_QPS * 0.05,
            n_ops=n_txns,
            distribution="uniform",
            txn_fraction=1.0,
            txn_reads=2,
            txn_writes=1,
            seed=seed,
        )
    )
    return merge_sorted([plain, txns])


@contextmanager
def _serve_setup(seed: int, smoke: bool, profile_path: Optional[str] = None):
    t0 = time.process_time()
    closed_ops = serve_trace(seed, 200 if smoke else 4_000).ops
    trace_cpu = time.process_time() - t0
    with httpload.Server(SRC_DIR, seed, profile_path) as server:
        yield {
            "smoke": smoke,
            "server": server,
            "closed_ops": closed_ops,
            "trace_us_per_op": trace_cpu / len(closed_ops) * 1e6,
        }


def _serve_cycle(ctx, seed: int) -> Outcome:
    out = Outcome()
    server = ctx["server"]
    replay_trace = serve_trace(seed, 200 if ctx["smoke"] else 4_000)
    # Phase A: closed loop over the two connections.
    cpu0 = server.cpu_s()
    load = httpload.drive(server.port, ctx["closed_ops"])
    server_cpu = server.cpu_s() - cpu0
    out.problems.extend(load.bad[:5])
    # What a cycle is timed by: the server's CPU and the client's wall
    # clock over the HTTP phase, not this process's.
    out.host["cpu_s"] = server_cpu
    out.host["wall_s"] = load.wall_s
    out.host["timed_ops"] = load.ok
    out.host["http_requests"] = load.requests
    out.host["http_bad"] = len(load.bad)
    out.host["http_p99_ms"] = percentile(load.latencies_s, 99.0) * 1e3

    # Phase C: the same mix through the bridge, in process.
    c0 = time.process_time()
    bridge = SimBridge(ServeSettings(seed=seed))
    bridge.warm()
    report = bridge.replay(replay_trace)
    out.host["sim_cpu_s"] = time.process_time() - c0
    check_clean(out, "replay", report)
    by_kind = {"get": out.reads, "put": out.writes, "txn": out.txns}
    get_bytes = 0
    for result in report.results:
        if result.ok:
            by_kind[result.op.kind].append(result.latency_ns)
            if result.op.kind == "get":
                get_bytes += bridge.settings.object_size
    out.goodput_gbps = get_bytes / report.makespan_ns
    out.ops = report.n_ok
    out.failed = report.n_errors
    out.attempted = report.n_ops
    out.count("internal_failures", report.n_errors)
    out.count("replay_events", bridge.sim.events_fired)
    metrics = bridge.metrics_snapshot()

    def series(name: str) -> float:
        return httpload.metric_total(metrics, name)

    _shard_counters(out, lambda column: series(f"repro_shard_{column}"))
    out.count("session_waits", series("repro_session_waits_total"))
    out.count("partition_refusals", series("repro_partition_refusals_total"))
    aborts = series("repro_txn_validation_aborts") + series("repro_txn_lock_conflicts")
    out.count("txn_aborts", aborts)
    out.count("txn_attempts", aborts + series("repro_txn_commits"))
    return out


def scrape_checks(server, problems: List[str]) -> Dict[str, float]:
    """``/metrics`` of the live server: the atomicity check on what it
    served, and the counters only the server process has."""
    text, took_s = server.scrape()
    if httpload.metric_total(text, "repro_shard_undetected_violations"):
        problems.append("server /metrics reports undetected violations")
    if httpload.metric_total(text, "repro_txn_torn_reads_observed"):
        problems.append("server /metrics reports torn transaction reads")
    return {
        "scrape_ms": took_s * 1e3,
        "events_fired": httpload.metric_total(text, "repro_sim_events_fired_total"),
        "requests": httpload.metric_total(text, "repro_requests_total"),
        "session_waits": httpload.metric_total(text, "repro_session_waits_total"),
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_figs", _paper_setup, _paper_cycle, seeds_per_run=1),
        Workload("kv_mixed", _sim_setup, _kv_cycle, seeds_per_run=4),
        Workload("chaos_elastic", _sim_setup, _chaos_cycle, seeds_per_run=6),
        Workload("serve_http", _serve_setup, _serve_cycle, seeds_per_run=4),
    )
}
