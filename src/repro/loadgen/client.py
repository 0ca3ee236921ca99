"""The wall-clock open-loop client.

Fires every op of an :class:`~repro.serve.ops.ArrivalTrace` at its
arrival time — on the wall clock, scaled from the trace's virtual
nanoseconds — against a live ``repro-serve`` gateway, without ever
waiting for earlier requests (open loop).  Requests ride a small pool
of keep-alive connections; when the pool is dry a new connection is
opened, so a saturated server sees the backlog instead of throttling
the client.

Latencies here are *wall-clock* — they include the gateway, the time
bridge, and the event loop, unlike the virtual-ns latencies inside the
simulation — and are therefore not deterministic run to run.  The
deterministic path is :meth:`repro.serve.bridge.SimBridge.replay`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple
from urllib.parse import quote

from repro.serve.ops import ArrivalTrace, TimedOp
from repro.sim.stats import Samples

#: Seconds a request may wait for its response before it counts as a
#: transport error.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class LoadReport:
    """Wall-clock accounting for one open-loop run."""

    offered_qps: float
    achieved_qps: float
    duration_s: float
    n_ops: int
    n_ok: int
    n_errors: int
    status_counts: Dict[int, int]
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    transport_errors: int

    @property
    def achieved_ratio(self) -> float:
        if self.offered_qps <= 0:
            return 1.0
        return self.achieved_qps / self.offered_qps

    def to_dict(self) -> Dict[str, Any]:
        return {
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "achieved_ratio": self.achieved_ratio,
            "duration_s": self.duration_s,
            "n_ops": self.n_ops,
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "status_counts": {str(k): v for k, v in self.status_counts.items()},
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "transport_errors": self.transport_errors,
        }


class _ConnPool:
    """Keep-alive connection pool that grows on demand (open loop:
    a request never queues behind another for a socket)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def acquire(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while self._idle:
            reader, writer = self._idle.pop()
            if not writer.is_closing():
                return reader, writer
        return await asyncio.open_connection(self.host, self.port)

    def release(
        self, conn: Tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ) -> None:
        self._idle.append(conn)

    def discard(
        self, conn: Tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ) -> None:
        try:
            conn[1].close()
        except (ConnectionError, OSError):
            pass

    def close(self) -> None:
        while self._idle:
            self.discard(self._idle.pop())


def _render_request(op: TimedOp) -> bytes:
    if op.kind == "txn":
        body = json.dumps(
            {
                "read_keys": list(op.read_keys),
                "write_keys": list(op.write_keys),
            }
        ).encode("utf-8")
        head = (
            f"POST /v1/txn HTTP/1.1\r\nHost: load\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
        )
        return head.encode("latin-1") + body
    method = "GET" if op.kind == "get" else "PUT"
    head = (
        f"{method} /v1/obj/{quote(op.key)} HTTP/1.1\r\nHost: load\r\n"
        f"Content-Length: 0\r\nConnection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1")


async def _read_response(reader: asyncio.StreamReader) -> int:
    """Parse one keep-alive response; returns the HTTP status."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    if length:
        await reader.readexactly(length)
    return status


async def run_open_loop(
    trace: ArrivalTrace,
    host: str,
    port: int,
    time_scale: float = 1.0,
) -> LoadReport:
    """Drive ``trace`` against a live gateway.

    ``time_scale`` compresses the virtual arrival stamps onto the wall
    clock: wall seconds between arrivals = virtual ns gap / 1e9 /
    ``time_scale``.  The default 1.0 replays virtual nanoseconds as
    wall nanoseconds, so the trace's QPS *is* the wall QPS asked of the
    server.  A response that takes longer than
    :data:`REQUEST_TIMEOUT_S` counts as a transport error.
    """
    loop = asyncio.get_running_loop()
    pool = _ConnPool(host, port)
    latencies = Samples("load_wall_s")
    status_counts: Dict[int, int] = {}
    transport_errors = 0
    tasks: List[asyncio.Task] = []

    async def fire(op: TimedOp) -> None:
        nonlocal transport_errors
        payload = _render_request(op)
        t0 = loop.time()
        try:
            conn = await pool.acquire()
            try:
                conn[1].write(payload)
                await conn[1].drain()
                status = await asyncio.wait_for(
                    _read_response(conn[0]), REQUEST_TIMEOUT_S
                )
                pool.release(conn)
            except BaseException:
                pool.discard(conn)
                raise
        except (
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ValueError,
        ):
            transport_errors += 1
            return
        latencies.add(loop.time() - t0)
        status_counts[status] = status_counts.get(status, 0) + 1

    start = loop.time()
    for op in trace.ops:
        due = start + op.at_ns / 1e9 / time_scale
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(fire(op)))
    if tasks:
        await asyncio.gather(*tasks)
    duration = max(loop.time() - start, 1e-9)
    pool.close()

    n_ok = status_counts.get(200, 0)
    n_done = sum(status_counts.values())
    p50, p95, p99 = latencies.percentiles((50.0, 95.0, 99.0))
    return LoadReport(
        offered_qps=trace.offered_qps * time_scale
        if trace.offered_qps
        else len(trace.ops) / duration,
        achieved_qps=n_ok / duration,
        duration_s=duration,
        n_ops=len(trace.ops),
        n_ok=n_ok,
        n_errors=(n_done - n_ok) + transport_errors,
        status_counts=status_counts,
        p50_ms=p50 * 1e3,
        p95_ms=p95 * 1e3,
        p99_ms=p99 * 1e3,
        mean_ms=latencies.mean * 1e3,
        transport_errors=transport_errors,
    )
