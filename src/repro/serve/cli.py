"""``repro-serve`` — boot the gateway over a simulated cluster.

Every flag has a ``REPRO_SERVE_*`` environment-variable twin (flags
win); see :mod:`repro.serve.settings` for the resolution order.

Examples::

    repro-serve --port 8373 --shards 4 --mechanism sabre
    REPRO_SERVE_MAX_SESSIONS=32 repro-serve --request-timeout-ns 2e6
    repro-serve --rate-limit-qps 500 --metrics-artifact final_metrics.prom
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.serve.gateway import serve
from repro.serve.settings import ServeSettings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="HTTP gateway over the simulated sharded cluster.",
    )
    net = parser.add_argument_group("network")
    net.add_argument("--host", help="bind address (default 127.0.0.1)")
    net.add_argument("--port", type=int, help="bind port (default 8373)")

    cluster = parser.add_argument_group("cluster")
    cluster.add_argument("--shards", type=int, dest="n_shards")
    cluster.add_argument("--replication", type=int)
    cluster.add_argument("--mechanism")
    cluster.add_argument("--objects", type=int, dest="n_objects")
    cluster.add_argument("--object-size", type=int, dest="object_size")
    cluster.add_argument("--seed", type=int)
    cluster.add_argument("--clients", type=int, dest="n_clients")
    cluster.add_argument(
        "--fallback-after-ns", type=float, dest="fallback_after_ns"
    )

    bridge = parser.add_argument_group("time bridge")
    bridge.add_argument(
        "--request-timeout-ns", type=float, dest="request_timeout_ns"
    )
    bridge.add_argument(
        "--txn-max-attempts", type=int, dest="txn_max_attempts"
    )
    bridge.add_argument("--max-sessions", type=int, dest="max_sessions")

    prod = parser.add_argument_group("production trimmings")
    prod.add_argument("--rate-limit-qps", type=float, dest="rate_limit_qps")
    prod.add_argument(
        "--rate-limit-burst", type=float, dest="rate_limit_burst"
    )
    prod.add_argument("--warmup-delay", type=float, dest="warmup_delay_s")
    prod.add_argument("--drain-timeout", type=float, dest="drain_timeout_s")
    prod.add_argument("--metrics-artifact", dest="metrics_artifact")
    return parser


def settings_from_args(args: argparse.Namespace) -> ServeSettings:
    overrides = {k: v for k, v in vars(args).items() if v is not None}
    return ServeSettings.from_env(**overrides)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = settings_from_args(args)
    except ConfigError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    print(
        f"repro-serve: {settings.n_shards} shards x{settings.replication} "
        f"({settings.mechanism}), "
        f"listening on http://{settings.host}:{settings.port}",
        flush=True,
    )
    try:
        asyncio.run(serve(settings))
    except KeyboardInterrupt:
        pass
    print("repro-serve: drained, bye", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
