"""The repo benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1
    python3 bench/run.py --smoke [--workload W] [--seed S] [--out FILE]

``--trace 0`` repeats the workload's cycle for ``--seconds`` with no
instrumentation and prints the end-to-end metrics; ``--trace 1`` runs
the cycle once plain and once under a profiler and prints the
per-layer metrics.  The two never mix: no end-to-end number comes from
a traced run.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero when any correctness check failed.

Two clocks are kept apart everywhere.  **sim** is virtual ns of the
modelled rack: exact for a seed, required to repeat bit for bit on
every cycle.  **host** is CPU seconds of the process doing the
simulating (``time.process_time()``; ``/proc/<pid>/stat`` for the
server subprocess), which on a shared box is far steadier than wall
time; the two wall-clock metrics (``wall_ops_per_s``, ``setup_s``) are
what a user waits for.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os
import sys

#: A stray REPRO_SIM_SCHEDULER=heap or SABRES_BENCH_SCALE must not
#: change what is measured; scrubbed before anything imports repro, and
#: inherited scrubbed by the server and the set-up probes.
SCRUBBED = sorted(
    name
    for name in os.environ
    if name.startswith("REPRO_") or name == "SABRES_BENCH_SCALE"
)
for _name in SCRUBBED:
    del os.environ[_name]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse
import cProfile
import json
import platform
import pstats
import resource
import signal
import statistics
import subprocess
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim import engine

import httpload
import layers
import workloads
from workloads import Outcome, Workload, percentile

#: A p99 is reported only with ten samples beyond it.
P99_MIN_SAMPLES = 1100
SETUP_REPEATS = 5


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha() -> str:
    """HEAD of the checkout this file sits in (the driver's checkout is
    not a git repository: ``unknown`` there)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def provenance(seed: int) -> Dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "scheduler": engine.Simulator().scheduler,
        "block_mode": engine.block_mode(),
        "env_scrubbed": SCRUBBED,
    }


@contextmanager
def tracked_simulators() -> Iterator[List[Any]]:
    """Every Simulator built inside the block (the hook
    ``repro.perf.bench`` uses)."""
    sims: List[Any] = []
    engine.TRACKED_SIMULATORS = sims
    try:
        yield sims
    finally:
        engine.TRACKED_SIMULATORS = None


class Cycle:
    """One timed repeat of a workload's cycle."""

    def __init__(self, workload: Workload, ctx: Any, seed: int, profiler=None):
        with tracked_simulators() as sims:
            w0, c0 = time.perf_counter(), time.process_time()
            if profiler is not None:
                profiler.enable()
            try:
                self.out: Outcome = workload.cycle(ctx, seed)
            finally:
                if profiler is not None:
                    profiler.disable()
            self.cpu_s = time.process_time() - c0
            self.wall_s = time.perf_counter() - w0
        self.events_fired = sum(s.events_fired for s in sims)
        self.events_scheduled = sum(s.events_scheduled for s in sims)
        self.events_cancelled = sum(s.events_cancelled for s in sims)
        self.compactions = sum(s.compactions for s in sims)
        # A cycle may say what it is timed by (serve_http: the server
        # process and the HTTP phase) instead of this process's clocks.
        host = self.out.host
        ops = host.get("timed_ops", self.out.ops)
        self.us_per_op = host.get("cpu_s", self.cpu_s) / ops * 1e6
        self.ops_per_s = ops / host.get("wall_s", self.wall_s)
        self.sim_cpu_s = host.get("sim_cpu_s", self.cpu_s)


def p99(samples: List[float]) -> float:
    """The 99th percentile, or 0.0 (not reported) without ten samples
    beyond it."""
    return percentile(samples, 99.0) if len(samples) >= P99_MIN_SAMPLES else 0.0


def setup_probe_s(name: str, seed: int) -> float:
    """Set the workload up once more, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def cycle_seed(seed: int, k: int) -> int:
    """The ``k``-th of the seeds a run draws from ``--seed``."""
    return seed * 16 + k


def end_to_end(
    cycles: List[Cycle], firsts: List[Outcome], setup_s: float, rss_mb: float,
    smoke: bool, problems: List[str],
) -> Dict[str, float]:
    """``firsts`` holds one outcome per seed the run drew: simulated
    numbers pool over them; host numbers are medians over every cycle."""
    reads = [x for out in firsts for x in out.reads]
    if len(reads) < P99_MIN_SAMPLES and not smoke:
        problems.append(f"{len(reads)} read samples: a p99 needs {P99_MIN_SAMPLES}")
    return {
        "setup_s": setup_s,
        "host_us_per_op": statistics.median(c.us_per_op for c in cycles),
        "wall_ops_per_s": statistics.median(c.ops_per_s for c in cycles),
        "peak_rss_mb": rss_mb,
        "sim_read_mean_ns": statistics.fmean(reads),
        "sim_read_p99_ns": percentile(reads, 99.0),
        "sim_goodput_gbps": statistics.fmean(out.goodput_gbps for out in firsts),
    }


def totals(cycles: List[Cycle]) -> Tuple[int, int]:
    """Ops attempted and failed over all cycles (serve_http: replayed
    ops plus HTTP requests)."""
    attempted = sum(
        c.out.attempted + int(c.out.host.get("http_requests", 0)) for c in cycles
    )
    failed = sum(c.out.failed + int(c.out.host.get("http_bad", 0)) for c in cycles)
    return attempted, failed


def own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name: str, seed: int, seconds: float, t0: float) -> Dict[str, Any]:
    """``--trace 0``: one cycle on each of the workload's seeds, then
    round again until ``seconds`` have been measured (always finishing
    the cycle in hand); a repeated seed must repeat exactly."""
    workload = workloads.WORKLOADS[name]
    problems: List[str] = []
    cycles: List[Cycle] = []
    servers: List[List[int]] = []
    firsts: List[Outcome] = []
    with workload.setup(seed, False) as ctx:
        setups = [time.perf_counter() - t0]
        started = time.perf_counter()
        while True:
            k = len(cycles) % workload.seeds_per_run
            cycles.append(Cycle(workload, ctx, cycle_seed(seed, k)))
            if len(cycles) <= workload.seeds_per_run:
                firsts.append(cycles[-1].out)
            elif cycles[-1].out.exact() != firsts[k].exact():
                problems.append(
                    f"cycle {len(cycles) - 1} does not repeat cycle {k} exactly"
                )
            elapsed = time.perf_counter() - started
            if (
                len(cycles) >= workload.seeds_per_run
                and elapsed + 0.5 * cycles[-1].wall_s >= seconds
            ):
                break
        server = ctx.get("server")
        if server is not None:
            workloads.scrape_checks(server, problems)
            servers = [[server.proc.pid, server.port]]
    setups += [setup_probe_s(name, seed) for _ in range(SETUP_REPEATS - 1)]
    for cycle in cycles:
        problems.extend(cycle.out.problems)
    rss = server.peak_rss_mb if server is not None else own_rss_mb()
    metrics = end_to_end(
        cycles, firsts, statistics.median(setups), rss, False, problems
    )
    attempted, failed = totals(cycles)
    return {
        "workload": name,
        "metrics": metrics,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "info": {
            "cycles": len(cycles),
            "seeds": [cycle_seed(seed, k) for k in range(len(firsts))],
            "ops_per_cycle": [out.ops for out in firsts],
            "read_samples": sum(len(out.reads) for out in firsts),
            "setup_s_each": [round(s, 4) for s in setups],
            "host_us_per_op_each": [round(c.us_per_op, 3) for c in cycles],
            "servers": servers,
            **cycles[0].out.notes,
        },
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


def open_loop(server, seed: int, smoke: bool, problems: List[str]) -> Dict[str, float]:
    """Phase B: the same mix at fixed rates, each request timed from
    when it was due.  Wall-clock tails on a shared box vary run to run
    (three identical 8 s runs at 800 req/s gave p99 = 7, 22 and 47 ms
    while p50 at 400 req/s stayed within 1.11-1.29 ms), so all of this
    is informational."""
    out: Dict[str, float] = {"max_rate_ok": 0.0}
    for rate in workloads.OPEN_LOOP_RATES:
        n_ops = 30 if smoke else int(rate * (5.0 if rate == 400 else 2.0))
        ops = workloads.serve_trace(seed + rate, n_ops).ops
        load = httpload.drive(server.port, ops, rate=float(rate))
        problems.extend(load.bad[:5])
        p99_ms = percentile(load.latencies_s, 99.0) * 1e3
        achieved = load.ok / load.wall_s
        if p99_ms <= workloads.RATE_OK_P99_MS and (
            smoke or achieved >= workloads.RATE_OK_ACHIEVED * rate
        ):
            out["max_rate_ok"] = float(rate)
        if rate == 400:
            out["p50_ms_at_400"] = percentile(load.latencies_s, 50.0) * 1e3
            out["p99_ms_at_400"] = p99_ms
            out["gen_lag_p99_ms"] = percentile(load.lags_s, 99.0) * 1e3
            out["requests_at_400"] = load.requests
    return out


def run_traced(name: str, seed: int, smoke: bool, t0: float) -> Dict[str, Any]:
    """``--trace 1`` (and ``--smoke``): the cycle once plain, once under
    cProfile; per-layer metrics from the pair."""
    workload = workloads.WORKLOADS[name]
    problems: List[str] = []
    info: Dict[str, float] = {}
    servers: List[List[int]] = []
    os.makedirs(workloads.RESULTS_DIR, exist_ok=True)
    stem = os.path.join(workloads.RESULTS_DIR, f"{name}-seed{seed}")
    # Written under this process's own names and renamed at the end:
    # two runs of the same workload and seed may be going at once.
    mine = f"{stem}.{os.getpid()}"

    with workload.setup(seed, smoke) as ctx:
        setup_s = time.perf_counter() - t0
        plain = Cycle(workload, ctx, cycle_seed(seed, 0))
        server = ctx.get("server")
        serve = server is not None
        if serve:
            info.update(open_loop(server, seed, smoke, problems))
            info.update(workloads.scrape_checks(server, problems))
            info["trace_us_per_op"] = ctx["trace_us_per_op"]
            servers.append([server.proc.pid, server.port])
    rss = server.peak_rss_mb if serve else own_rss_mb()

    profiler = cProfile.Profile()
    server_profile = mine + ".server.pstats" if serve else None
    with workload.setup(seed, smoke, server_profile) as ctx:
        traced = Cycle(workload, ctx, cycle_seed(seed, 0), profiler)
        if serve:
            servers.append([ctx["server"].proc.pid, ctx["server"].port])
    profiler.dump_stats(mine + ".pstats")
    in_process = layers.LayerTable(pstats.Stats(profiler))
    # serve_http: shares come from the server process (where its
    # host_us_per_op is spent); exact call counts from the in-process
    # replay, because the server's batching follows the wall clock.
    shares = (
        layers.LayerTable(pstats.Stats(server_profile)) if serve else in_process
    )

    for cycle in (plain, traced):
        problems.extend(cycle.out.problems)
    if traced.out.exact() != plain.out.exact():
        problems.append("the traced cycle is not identical to the plain one")
    out = plain.out
    ops = out.ops
    c = out.counters

    def per(counter: str, denominator: float) -> float:
        return c.get(counter, 0) / denominator if denominator else 0.0

    metrics: Dict[str, float] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_share"] = shares.self_share(layer)
        metrics[f"{layer}.calls_per_op"] = in_process.calls[layer] / ops
    reads = len(out.reads)
    probe = 0.02 if smoke else 1.0
    metrics.update({
        "sim.us_per_event": plain.sim_cpu_s / plain.events_fired * 1e6,
        "sim.events_per_op": plain.events_fired / ops,
        "sim.dispatch_ns_shallow": layers.dispatch_ns(4, 4, int(200_000 * probe)),
        "sim.dispatch_ns_deep": layers.dispatch_ns(128, 128, int(65_536 * probe)),
        "sim.cancelled_share": plain.events_cancelled / plain.events_scheduled,
        "sim.compactions": plain.compactions,
        "core.sabre_abort_rate": per("sabre_aborts", c.get("sabres", 0)),
        "fabric.packets_per_op": in_process.calls_of("fabric/network.py", "send") / ops,
        "fabric.partition_refusals": c.get("partition_refusals", 0),
        "sonuma.rpc_served_per_op": in_process.calls_of("sonuma/rpc.py", "_serve") / ops,
        "sonuma.rpc_timeouts": in_process.calls_of("sonuma/rpc.py", "_expire"),
        "sonuma.watchdog_rearms": c.get("watchdog_rearms", 0),
        "objstore.retries_per_op": per("retries", ops),
        "objstore.fallback_reads": c.get("fallback_reads", 0),
        "objstore.txn_abort_rate": per("txn_aborts", c.get("txn_attempts", 0)),
        "objstore.lock_spins_per_write": per("lock_spins", c.get("writes_routed", 0)),
        "objstore.redirects_per_op": per("redirects", ops),
        "objstore.keys_migrated": c.get("keys_migrated", 0),
        "workloads.zipf_pick_ns": layers.zipf_pick_ns(seed, int(200_000 * probe)),
        "faults.windows_opened": c.get("fault_windows", 0),
        "experiments.overhead_share": 0.0,
        "experiments.resume_ms": out.host.get("resume_ms", 0.0),
        "experiments.points": c.get("points", 0),
        "serve.bridge_us_per_op": 0.0,
        "serve.gateway_us_per_req": 0.0,
        "serve.events_per_op": 0.0,
        "serve.p99_ms_closed": out.host.get("http_p99_ms", 0.0),
        "serve.p99_ms_at_400": info.get("p99_ms_at_400", 0.0),
        "serve.max_rate_ok": info.get("max_rate_ok", 0.0),
        "serve.gen_lag_p99_ms": info.get("gen_lag_p99_ms", 0.0),
        "serve.scrape_ms": info.get("scrape_ms", 0.0),
        "serve.session_waits": info.get("session_waits", 0.0),
        "loadgen.trace_us_per_op": info.get("trace_us_per_op", 0.0),
        "trace.overhead_x": traced.us_per_op / plain.us_per_op,
        "trace.attributed_share": shares.attributed_share,
        "sim_read_p50_ns": percentile(out.reads, 50.0),
        "sim_write_p50_ns": percentile(out.writes, 50.0),
        "sim_write_p99_ns": p99(out.writes),
        "sim_txn_p50_ns": percentile(out.txns, 50.0),
        "sim_txn_p99_ns": p99(out.txns),
        "http_rps": plain.ops_per_s if serve else 0.0,
        "http_p50_ms": info.get("p50_ms_at_400", 0.0),
        "paper_band_misses": c.get("paper_band_misses", 0),
        "failed_op_share": per("internal_failures", ops + c.get("internal_failures", 0)),
    })
    if "campaign_cpu_s" in out.host:
        campaign = out.host["campaign_cpu_s"]
        metrics["experiments.overhead_share"] = (
            campaign - out.host["point_cpu_s"]
        ) / campaign
    if serve:
        bridge = plain.sim_cpu_s / ops * 1e6
        metrics["serve.bridge_us_per_op"] = bridge
        metrics["serve.gateway_us_per_req"] = plain.us_per_op - bridge
        metrics["serve.events_per_op"] = info["events_fired"] / info["requests"]

    table = shares.render(ops)
    with open(mine + ".layers.txt", "w") as fh:
        fh.write(f"{name} seed {seed}: {ops} ops per cycle\n{table}\n")
    for suffix in (".layers.txt", ".pstats", ".server.pstats"):
        if os.path.exists(mine + suffix):
            os.replace(mine + suffix, stem + suffix)
    attempted, failed = totals([plain])
    return {
        "workload": name,
        "metrics": metrics,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "layer_table": table,
        "plain": plain,
        "setup_s": setup_s,
        "rss_mb": rss,
        "info": {
            "ops_per_cycle": ops,
            "samples": {"read": reads, "write": len(out.writes), "txn": len(out.txns)},
            "servers": servers,
            **out.notes,
        },
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def shaped(metrics: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Exactly the metrics BENCHMARK.json declares, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    if missing or extra:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
    }


def print_metrics(title: str, block: Dict[str, Any]) -> None:
    print(f"\n== {title}")
    for name, cell in block.items():
        value = cell["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<32} {text:>14} {cell['unit']}")


def result_line(result: Dict[str, Any], block: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": block,
    })


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="floor durations, both metric sets, plus the "
                        "unguarded control; seconds-fast")
    parser.add_argument("--out", help="also write the full report here as JSON")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--control-only", action="store_true",
                        help="run only the unguarded control and take the "
                        "checker's verdict on it at face value: must exit 1")
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so the server
    # subprocess and the temporary campaign never outlive it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.setup_probe:
        with workloads.WORKLOADS[args.workload].setup(args.seed, False):
            print(time.perf_counter() - _T0)
        return 0

    chosen = [args.workload] if args.workload else names
    if args.control_only:
        chosen = []
    report: Dict[str, Any] = {"provenance": provenance(args.seed), "workloads": {}}
    print(json.dumps(report["provenance"]))
    failed_checks: List[str] = []
    line = ""
    t0 = _T0
    for name in chosen:
        entry: Dict[str, Any] = {}
        if args.smoke or args.trace:
            result = run_traced(name, args.seed, args.smoke, t0)
            block = shaped(result["metrics"], spec["per_layer"])
            print(f"\n== {name}: layers\n{result['layer_table']}")
            print_metrics(f"{name}: per-layer", block)
            entry["per_layer"] = block
            if args.smoke:
                e2e = shaped(
                    end_to_end([result["plain"]], [result["plain"].out],
                               result["setup_s"], result["rss_mb"], True,
                               result["problems"]),
                    spec["end_to_end"],
                )
                print_metrics(f"{name}: end-to-end (smoke sizes)", e2e)
                entry["end_to_end"] = e2e
        else:
            result = run_untraced(name, args.seed, args.seconds, t0)
            block = shaped(result["metrics"], spec["end_to_end"])
            print_metrics(f"{name}: end-to-end", block)
            entry["end_to_end"] = block
        print(f"  info: {json.dumps(result['info'])}")
        for problem in result["problems"]:
            print(f"  CHECK FAILED: {problem}")
        failed_checks += result["problems"]
        entry.update(
            correct=not result["problems"], problems=result["problems"],
            attempted=result["attempted"], failed=result["failed"], info=result["info"],
        )
        report["workloads"][name] = entry
        line = result_line(result, block)
        t0 = time.perf_counter()

    if args.smoke or args.control_only:
        control = workloads.unguarded_control(args.seed)
        report["control_caught"] = bool(control.problems)
        print(f"\n== control (remote_read, 8 writers): {control.problems or 'NOT CAUGHT'}")
        if args.control_only:
            failed_checks += control.problems
        elif not control.problems:
            failed_checks.append(
                "the atomicity check passed an unguarded mechanism: it cannot fail"
            )
        line = json.dumps(report, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
            fh.write("\n")
    print(line)
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
