"""The asyncio HTTP gateway over :class:`~repro.serve.bridge.SimBridge`.

Endpoints (HTTP/1.1 with keep-alive, JSON bodies):

========================  ====================================================
``GET /v1/obj/{key}``     Read one object through the cluster's read protocol.
``PUT /v1/obj/{key}``     Write one object through the replication pipeline.
``POST /v1/txn``          Multi-key transaction: ``{"read_keys": [...],
                          "write_keys": [...]}`` (read-modify-write when both
                          are present).
``GET /healthz``          Liveness: 200 as soon as the process serves sockets.
``GET /readyz``           Readiness: 503 until the cluster is warmed, then 200.
``GET /metrics``          Prometheus text exposition of every gateway and
                          per-shard cluster counter.
========================  ====================================================

Status mapping: simulated-deadline expiry answers **504**, transaction
retry exhaustion **409**, unknown keys **404**, malformed requests
**400**, rate-limit rejections **429** (token bucket over all ``/v1/``
traffic), and requests arriving during drain **503**.

The gateway is written against :mod:`asyncio` directly — no HTTP
framework — because the container bakes in only the standard library.
The request parser is deliberately minimal: request line, headers,
``Content-Length`` bodies (no chunked encoding), bounded line and body
sizes.

**The driver task** is the wall-clock half of the time bridge.  Socket
handlers never touch the simulator; they enqueue ops on the bridge and
await an :class:`asyncio.Future`.  One driver coroutine owns virtual
time: whenever ops are pending, it runs the simulation to quiescence
(every op carries a virtual deadline, so each batch terminates).
Virtual time leaps ahead of the wall clock; latencies reported to
clients are *virtual* nanoseconds.

On SIGTERM/SIGINT the gateway stops accepting connections, lets
in-flight requests finish (bounded by ``drain_timeout_s``), flushes a
final deterministic metrics snapshot to ``metrics_artifact`` when
configured, and exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import unquote

from repro.common.errors import ConfigError
from repro.serve.bridge import OpResult, SimBridge
from repro.serve.ops import TimedOp
from repro.serve.settings import ServeSettings

#: Parser bounds: longest accepted header block and body.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024
_MAX_BODY_DIGITS = len(str(MAX_BODY_BYTES))

#: ``/metrics``' media type: the Prometheus text exposition format.
PROMETHEUS_TEXT = "text/plain; version=0.0.4; charset=utf-8"

#: Virtual-status -> HTTP status.
STATUS_HTTP = {
    "ok": 200,
    "timeout": 504,
    "conflict": 409,
    "not_found": 404,
    "bad_request": 400,
}

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class BadRequest(Exception):
    """A request the parser refuses: answered ``status`` (400 unless
    said otherwise), then the connection closes (its framing can no
    longer be trusted)."""

    def __init__(self, reason: str, message: str, status: int = 400):
        super().__init__(message)
        self.reason = reason
        self.status = status


class TokenBucket:
    """Wall-clock token bucket: ``rate`` tokens/second, ``burst``
    capacity.  ``rate <= 0`` disables limiting entirely."""

    def __init__(self, rate: float, burst: float, clock: Callable[[], float]):
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._last = clock()

    def allow(self) -> bool:
        if self.rate <= 0:
            return True
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class Gateway:
    """One serving process: listener + bridge + driver task."""

    def __init__(self, settings: ServeSettings):
        self.settings = settings
        self.bridge = SimBridge(settings)
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._driver_task: Optional[asyncio.Task] = None
        self._next_op_id = 0
        self._connections = 0
        self._started_wall = 0.0
        self._bucket: Optional[TokenBucket] = None

        m = self.bridge.metrics
        self._rate_limited = m.counter(
            "repro_rate_limited_total",
            "Requests rejected by the token-bucket rate limiter.",
        )
        self._http_errors = m.counter(
            "repro_http_errors_total",
            "Protocol-level request failures, by reason.",
        )
        self._uptime = m.gauge(
            "repro_uptime_seconds",
            "Wall-clock seconds since the gateway started.",
            volatile=True,
        )
        self._wall_qps = m.gauge(
            "repro_wall_qps",
            "Completed requests over wall-clock uptime.",
            volatile=True,
        )
        self._conn_gauge = m.gauge(
            "repro_open_connections", "Open client connections.", volatile=True
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._started_wall = self._loop.time()
        self._bucket = TokenBucket(
            self.settings.rate_limit_qps,
            self.settings.burst,
            self._loop.time,
        )
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        self._server = await asyncio.start_server(
            self._handle_connection, self.settings.host, self.settings.port
        )
        self._driver_task = asyncio.ensure_future(self._drive())

    @property
    def port(self) -> int:
        """The bound port (useful when configured with port 0)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent; signal-handler safe)."""
        if self._draining:
            return
        self._draining = True
        if self._wake is not None:
            self._wake.set()

    async def run(self) -> None:
        """Serve until a shutdown is requested, then drain and exit."""
        await self.start()
        try:
            assert self._wake is not None
            while not self._draining:
                await self._wake.wait()
                self._wake.clear()
            await self.drain()
        finally:
            if self._driver_task is not None:
                self._driver_task.cancel()

    async def drain(self) -> None:
        """Graceful shutdown: close the listener, give in-flight
        requests ``drain_timeout_s`` to finish, flush the artifact."""
        self._draining = True
        assert self._server is not None and self._loop is not None
        self._server.close()
        await self._server.wait_closed()
        deadline = self._loop.time() + self.settings.drain_timeout_s
        while (
            self.bridge.inflight > 0 or self._connections > 0
        ) and self._loop.time() < deadline:
            self._wake.set()  # let the driver flush pending sim work
            await asyncio.sleep(0.02)
        self._flush_artifact()
        self._drained.set()

    def _flush_artifact(self) -> None:
        path = self.settings.metrics_artifact
        if not path:
            return
        snapshot = self.bridge.metrics_snapshot(include_volatile=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(snapshot)

    # ------------------------------------------------------------------
    # the driver: wall clock -> virtual time
    # ------------------------------------------------------------------
    async def _drive(self) -> None:
        assert self._loop is not None and self._wake is not None
        if self.settings.warmup_delay_s > 0:
            await asyncio.sleep(self.settings.warmup_delay_s)
        self.bridge.warm()
        # Batch-drain the simulation whenever work is pending, otherwise
        # sleep on the wake event.
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self.bridge.inflight > 0:
                self.bridge.run_pending()
                # Completions resolved futures synchronously; yield so
                # their awaiting handlers run (and may submit more).
                await asyncio.sleep(0)

    async def _submit(self, op: TimedOp) -> OpResult:
        assert self._loop is not None and self._wake is not None
        future: asyncio.Future = self._loop.create_future()

        def done(result: OpResult) -> None:
            if not future.done():
                future.set_result(result)

        self.bridge.submit(op, callback=done)
        self._wake.set()
        return await future

    def _make_op(self, kind: str, **fields) -> TimedOp:
        op_id = self._next_op_id
        self._next_op_id += 1
        return TimedOp(op_id=op_id, at_ns=0.0, kind=kind, **fields)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except BadRequest as exc:
                    self._http_errors.inc(reason=exc.reason)
                    await self._write_response(
                        writer, exc.status, {"error": str(exc)}, keep_alive=False
                    )
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    asyncio.LimitOverrunError,
                ):
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                status, payload = await self._dispatch(method, path, body)
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        finally:
            self._connections -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        if len(head) > MAX_HEADER_BYTES:
            raise asyncio.LimitOverrunError("header block too large", 0)
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            self._http_errors.inc(reason="bad_request_line")
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        # ASCII digits only: int() would also take "+5", "5_0" and
        # non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise BadRequest(
                "bad_content_length", f"bad Content-Length: {raw_length!r}"
            )
        # Compare digit counts first: int() refuses strings past the
        # interpreter's 4 300-digit limit.
        digits = raw_length.lstrip("0") or "0"
        if len(digits) > _MAX_BODY_DIGITS or int(digits) > MAX_BODY_BYTES:
            raise BadRequest(
                "body_too_large", f"body over {MAX_BODY_BYTES} bytes", status=413
            )
        length = int(digits)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict,
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, str):  # only /metrics answers text
            body, content_type = payload.encode("utf-8"), PROMETHEUS_TEXT
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            content_type = "application/json"
        reason = REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            return 200, {"status": "alive"}
        if path == "/readyz":
            if self.bridge.ready and not self._draining:
                return 200, {"status": "ready"}
            return 503, {
                "status": "draining" if self._draining else "warming"
            }
        if path == "/metrics":
            return self._scrape()
        if path.startswith("/v1/"):
            return await self._dispatch_v1(method, path, body)
        self._http_errors.inc(reason="unknown_path")
        return 404, {"error": f"no route for {path}"}

    def _scrape(self) -> Tuple[int, Dict]:
        uptime = max(self._loop.time() - self._started_wall, 1e-9)
        self._uptime.set(uptime)
        self._wall_qps.set(self.bridge.completed / uptime)
        self._conn_gauge.set(self._connections)
        text = self.bridge.metrics_snapshot(include_volatile=True)
        return 200, text  # type: ignore[return-value]

    async def _dispatch_v1(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict]:
        if self._draining:
            return 503, {"error": "draining"}
        if not self.bridge.ready:
            return 503, {"error": "warming"}
        assert self._bucket is not None
        if not self._bucket.allow():
            self._rate_limited.inc()
            return 429, {"error": "rate limited"}
        if path.startswith("/v1/obj/"):
            key = unquote(path[len("/v1/obj/") :])
            if not key:
                self._http_errors.inc(reason="empty_key")
                return 400, {"error": "missing key"}
            if method == "GET":
                op = self._make_op("get", key=key)
            elif method == "PUT":
                op = self._make_op("put", key=key)
            else:
                self._http_errors.inc(reason="bad_method")
                return 405, {"error": f"{method} not allowed on {path}"}
            result = await self._submit(op)
            return STATUS_HTTP[result.status], result.to_dict()
        if path == "/v1/txn":
            if method != "POST":
                self._http_errors.inc(reason="bad_method")
                return 405, {"error": "txn requires POST"}
            try:
                spec = json.loads(body.decode("utf-8") or "{}")
                read_keys = tuple(str(k) for k in spec.get("read_keys", ()))
                write_keys = tuple(str(k) for k in spec.get("write_keys", ()))
                op = self._make_op(
                    "txn", read_keys=read_keys, write_keys=write_keys
                )
            except (ValueError, TypeError, ConfigError) as exc:
                self._http_errors.inc(reason="bad_txn_body")
                return 400, {"error": f"bad txn body: {exc}"}
            result = await self._submit(op)
            return STATUS_HTTP[result.status], result.to_dict()
        self._http_errors.inc(reason="unknown_path")
        return 404, {"error": f"no route for {path}"}


async def serve(settings: ServeSettings) -> None:
    """Entry point: build a gateway and run it until drained."""
    gateway = Gateway(settings)
    await gateway.run()
