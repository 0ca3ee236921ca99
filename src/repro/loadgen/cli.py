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

from repro.common.config import from_fields
from repro.common.errors import ConfigError
from repro.loadgen.client import run_open_loop
from repro.loadgen.sweep import SaturationConfig, run_saturation, write_artifact
from repro.loadgen.trace import TraceConfig, build_trace
from repro.serve.bridge import SimBridge
from repro.serve.settings import ServeSettings
from repro.workloads.generators import DISTRIBUTIONS
from repro.workloads.ycsb import YCSB_MIXES


def build_parser() -> argparse.ArgumentParser:
    """Every flag that sets a config field stores under the field's own
    name and has no default of its own: an unset flag leaves the
    config's default, so each default has one home."""
    parser = argparse.ArgumentParser(
        prog="repro-load",
        description="Open-loop load harness for the repro-serve gateway.",
        argument_default=argparse.SUPPRESS,
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
        default=False,
        help="replay in virtual time on an in-process cluster instead",
    )
    target.add_argument(
        "--sweep",
        action="store_true",
        default=False,
        help="saturation sweep (implies --replay per step)",
    )
    target.add_argument(
        "--mechanism",
        help="read mechanism of the in-process cluster (--replay, --sweep)",
    )
    target.add_argument(
        "--shards",
        type=int,
        dest="n_shards",
        help="shards of the in-process cluster (--replay, --sweep)",
    )

    load = parser.add_argument_group("load shape")
    load.add_argument("--qps", type=float)
    load.add_argument("--ops", type=int, dest="n_ops")
    load.add_argument(
        "--duration",
        type=float,
        dest="duration_s",
        help="seconds of offered load (overrides --ops)",
    )
    load.add_argument("--mix", choices=sorted(YCSB_MIXES), dest="workload")
    load.add_argument("--distribution", choices=DISTRIBUTIONS)
    load.add_argument("--zipf-theta", type=float)
    load.add_argument("--txn-fraction", type=float)
    load.add_argument("--objects", type=int, dest="n_objects")
    load.add_argument("--seed", type=int)
    load.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="wall compression for --url mode (see loadgen.client)",
    )

    sweep = parser.add_argument_group("sweep shape")
    sweep.add_argument("--qps-start", type=float)
    sweep.add_argument("--qps-factor", type=float)
    sweep.add_argument("--steps", type=int, dest="max_steps")
    sweep.add_argument("--collapse-ratio", type=float)
    sweep.add_argument("--ops-per-step", type=int)

    parser.add_argument("--output", default=None, help="write the JSON artifact here")
    return parser


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _run_saturation(
    args: argparse.Namespace, settings: ServeSettings, trace: TraceConfig
) -> int:
    result = run_saturation(
        from_fields(SaturationConfig, vars(args)), settings, trace
    )
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


def _run_replay(
    args: argparse.Namespace, settings: ServeSettings, trace: TraceConfig
) -> int:
    bridge = SimBridge(settings)
    bridge.warm()
    report = bridge.replay(build_trace(trace))
    payload = report.to_row()
    payload["errors_by_status"] = report.errors_by_status
    _emit(payload, args.output)
    return 0


def _run_live(args: argparse.Namespace, trace: TraceConfig) -> int:
    parsed = urlparse(args.url)
    if parsed.scheme != "http" or not parsed.hostname:
        raise ConfigError(f"need an http://host:port URL, got {args.url!r}")
    report = asyncio.run(
        run_open_loop(
            build_trace(trace),
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
        # One cluster and one op mix, whatever the mode: every flag
        # that names a field sets it the same way in all three.
        settings = from_fields(ServeSettings, vars(args))
        trace = from_fields(TraceConfig, vars(args))
        if args.sweep:
            return _run_saturation(args, settings, trace)
        if args.replay:
            return _run_replay(args, settings, trace)
        return _run_live(args, trace)
    except ConfigError as exc:
        print(f"repro-load: {exc}", file=sys.stderr)
        return 2
    except ConnectionError as exc:
        print(f"repro-load: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
