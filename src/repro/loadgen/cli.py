"""``repro-load`` — open-loop load against a live (or simulated) target.

Three ways to run:

* ``repro-load --url http://127.0.0.1:8373 --qps 200 --duration 5`` —
  wall-clock open loop against a live ``repro-serve``; reports
  achieved QPS, p50/p95/p99 latency, and error counts.
* ``repro-load --replay --qps 500000 --ops 5000`` — the same trace
  replayed in virtual time on an in-process cluster (no server
  needed, fully deterministic).
* ``repro-load --sweep --output sweep.json`` — the saturation sweep:
  offered QPS doubles until achieved/offered collapses; the JSON
  artifact records every step and the measured peak.

``--output FILE`` writes the JSON artifact for any mode.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional
from urllib.parse import urlparse

from repro.common.errors import ConfigError
from repro.loadgen.client import run_open_loop
from repro.loadgen.sweep import SweepConfig, run_sweep, write_artifact
from repro.loadgen.trace import TraceConfig, build_trace
from repro.serve.bridge import SimBridge
from repro.serve.settings import ServeSettings
from repro.workloads.generators import DISTRIBUTIONS
from repro.workloads.ycsb import YCSB_MIXES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-load",
        description="Open-loop load harness for the repro-serve gateway.",
    )
    target = parser.add_argument_group("target")
    target.add_argument(
        "--url",
        default="http://127.0.0.1:8373",
        help="live gateway base URL (wall-clock mode, the default)",
    )
    target.add_argument(
        "--replay",
        action="store_true",
        help="replay in virtual time on an in-process cluster instead",
    )
    target.add_argument(
        "--sweep",
        action="store_true",
        help="saturation sweep (implies --replay per step)",
    )

    load = parser.add_argument_group("load shape")
    load.add_argument("--qps", type=float, default=1000.0)
    load.add_argument("--ops", type=int, default=1000)
    load.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="seconds of offered load (overrides --ops)",
    )
    load.add_argument("--mix", choices=sorted(YCSB_MIXES), default="B")
    load.add_argument("--distribution", choices=DISTRIBUTIONS, default="zipfian")
    load.add_argument("--zipf-theta", type=float, default=0.99)
    load.add_argument("--txn-fraction", type=float, default=0.0)
    load.add_argument("--objects", type=int, default=512)
    load.add_argument("--seed", type=int, default=1)
    load.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="wall compression for --url mode (see loadgen.client)",
    )

    sweep = parser.add_argument_group("sweep shape")
    sweep.add_argument("--qps-start", type=float, default=4_000_000.0)
    sweep.add_argument("--qps-factor", type=float, default=2.0)
    sweep.add_argument("--steps", type=int, default=8)
    sweep.add_argument("--collapse-ratio", type=float, default=0.85)
    sweep.add_argument("--ops-per-step", type=int, default=2000)
    sweep.add_argument("--mechanism", default="sabre")
    sweep.add_argument("--shards", type=int, default=4)

    parser.add_argument("--output", help="write the JSON artifact here")
    return parser


def _trace_config(args: argparse.Namespace) -> TraceConfig:
    return TraceConfig(
        qps=args.qps,
        n_ops=args.ops,
        duration_s=args.duration,
        workload=args.mix,
        distribution=args.distribution,
        zipf_theta=args.zipf_theta,
        txn_fraction=args.txn_fraction,
        n_objects=args.objects,
        seed=args.seed,
    )


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _run_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        qps_start=args.qps_start,
        qps_factor=args.qps_factor,
        max_steps=args.steps,
        collapse_ratio=args.collapse_ratio,
        ops_per_step=args.ops_per_step,
        workload=args.mix,
        distribution=args.distribution,
        zipf_theta=args.zipf_theta,
        txn_fraction=args.txn_fraction,
        mechanism=args.mechanism,
        n_shards=args.shards,
        n_objects=args.objects,
        seed=args.seed,
    )
    result = run_sweep(cfg)
    summary = result.to_dict()
    del summary["config"]  # keep stdout focused; the artifact has it all
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.output:
        write_artifact(result, args.output)
    print(
        f"repro-load: peak {result.peak_qps:,.0f} req/s, "
        f"knee {result.knee_qps:,.0f} req/s offered "
        f"({'collapsed' if result.collapsed else 'never collapsed'})",
        file=sys.stderr,
    )
    return 0


def _run_replay(args: argparse.Namespace) -> int:
    trace = build_trace(_trace_config(args))
    bridge = SimBridge(
        ServeSettings(n_objects=args.objects, seed=args.seed)
    )
    bridge.warm()
    report = bridge.replay(trace)
    payload = report.to_row()
    payload["errors_by_status"] = report.errors_by_status
    _emit(payload, args.output)
    return 0


def _run_live(args: argparse.Namespace) -> int:
    parsed = urlparse(args.url)
    if parsed.scheme != "http" or not parsed.hostname:
        raise ConfigError(f"need an http://host:port URL, got {args.url!r}")
    trace = build_trace(_trace_config(args))
    report = asyncio.run(
        run_open_loop(
            trace,
            parsed.hostname,
            parsed.port or 80,
            time_scale=args.time_scale,
        )
    )
    _emit(report.to_dict(), args.output)
    return 0 if report.transport_errors == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.sweep:
            return _run_sweep(args)
        if args.replay:
            return _run_replay(args)
        return _run_live(args)
    except ConfigError as exc:
        print(f"repro-load: {exc}", file=sys.stderr)
        return 2
    except ConnectionError as exc:
        print(f"repro-load: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
