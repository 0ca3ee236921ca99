"""The ``repro-serve`` subprocess and the two-connection HTTP client.

The server is the program under test, so it runs as its own process
(``python -m repro.serve.cli``, default settings, fast mode) and is
measured from outside: CPU from ``/proc/<pid>/stat``, peak RSS from
``/proc/<pid>/status``, latency on the client's wall clock.

The client is deliberately not :mod:`repro.loadgen.client`: that one
grows its connection pool on demand and times from *send*.  Here the
load is exactly two keep-alive connections (one thread each, ``nproc``
on the sizing box), and an open-loop request is timed from when it was
*due*, so a stall is charged to every request it delayed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence
from urllib.parse import quote

CONNECTIONS = 2
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def render_request(op) -> bytes:
    """One :class:`repro.serve.ops.TimedOp` as keep-alive HTTP/1.1."""
    if op.kind == "txn":
        body = json.dumps(
            {"read_keys": list(op.read_keys), "write_keys": list(op.write_keys)}
        ).encode()
        head = (
            "POST /v1/txn HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode() + body
    method = "GET" if op.kind == "get" else "PUT"
    return (
        f"{method} /v1/obj/{quote(op.key)} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Length: 0\r\n\r\n"
    ).encode()


class Connection:
    """One blocking keep-alive connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        self.sock.close()

    def exchange(self, request: bytes) -> tuple:
        """Send one request; return ``(status, body bytes)``."""
        self.sock.sendall(request)
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(rest) < length:
            self._buf = rest
            self._fill()
            rest = self._buf
        self._buf = rest[length:]
        return status, rest[:length]

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk


@dataclass
class LoadResult:
    """One phase of HTTP load, on the client's wall clock."""

    requests: int
    ok: int
    wall_s: float
    #: Seconds from due time (open loop) or from send (closed loop).
    latencies_s: List[float]
    #: Seconds the generator sent after the due time (open loop only).
    lags_s: List[float] = field(default_factory=list)
    bad: List[str] = field(default_factory=list)


def drive(port: int, ops: Sequence, rate: Optional[float] = None) -> LoadResult:
    """Send ``ops`` over exactly :data:`CONNECTIONS` connections.

    ``rate=None`` is the closed loop: each connection sends its next
    request when the previous reply has arrived.  With a rate, op ``k``
    is due ``k / rate`` seconds after the start and is timed from then,
    whether or not its connection was free."""
    requests = [render_request(op) for op in ops]
    per_thread: List[Dict[str, list]] = [
        {"lat": [], "lag": [], "bad": []} for _ in range(CONNECTIONS)
    ]
    start = time.perf_counter() + 0.01

    def worker(index: int) -> None:
        out = per_thread[index]
        conn = Connection(port)
        try:
            for k in range(index, len(requests), CONNECTIONS):
                if rate is None:
                    due = time.perf_counter()
                else:
                    due = start + k / rate
                    wait = due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    out["lag"].append(time.perf_counter() - due)
                status, body = conn.exchange(requests[k])
                out["lat"].append(time.perf_counter() - due)
                if status != 200:
                    out["bad"].append(f"op {k}: HTTP {status}")
                    continue
                try:
                    json.loads(body)
                except ValueError:
                    out["bad"].append(f"op {k}: unparseable body")
        except (OSError, ValueError) as exc:
            out["bad"].append(f"connection {index}: {exc!r}")
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(CONNECTIONS)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    bad = [b for out in per_thread for b in out["bad"]]
    return LoadResult(
        requests=len(requests),
        ok=len(requests) - len(bad),
        wall_s=wall,
        latencies_s=[x for out in per_thread for x in out["lat"]],
        lags_s=[x for out in per_thread for x in out["lag"]],
        bad=bad,
    )


class ServerExited(RuntimeError):
    """The server process ended before it became ready."""


class Server:
    """``python -m repro.serve.cli`` on a free port; a context manager
    that always terminates the process, also on failure or Ctrl-C."""

    def __init__(self, src_dir: str, seed: int, profile_path: Optional[str] = None):
        self._argv = [sys.executable]
        if profile_path:
            self._argv += ["-m", "cProfile", "-o", profile_path]
        self._argv += ["-m", "repro.serve.cli", "--seed", str(seed), "--port"]
        self._env = dict(os.environ, PYTHONPATH=src_dir)
        #: Filled by :meth:`stop` while ``/proc`` can still be read.
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "Server":
        # The free port is found, released and only then bound by the
        # server, so another process can take it in between: try again.
        for attempt in range(3):
            self.port = free_port()
            self.proc = subprocess.Popen(
                [*self._argv, str(self.port)], env=self._env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            try:
                self._wait_ready()
                return self
            except BaseException as exc:
                self.stop()
                if not isinstance(exc, ServerExited) or attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def __exit__(self, *exc) -> None:
        self.stop()

    def _wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServerExited(
                    f"repro-serve exited with {self.proc.returncode}: "
                    f"{self.proc.stderr.read().decode(errors='replace')[-500:]}"
                )
            try:
                conn = Connection(self.port)
            except OSError:
                time.sleep(0.01)
                continue
            try:
                status, _ = conn.exchange(b"GET /readyz HTTP/1.1\r\nHost: bench\r\n\r\n")
            except (OSError, ValueError):
                status = 0
            finally:
                conn.close()
            if status == 200:
                return
            time.sleep(0.01)
        raise RuntimeError("repro-serve did not become ready")

    def cpu_s(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S

    def scrape(self) -> tuple:
        """``GET /metrics``: ``(text, seconds it took)``."""
        conn = Connection(self.port)
        try:
            t0 = time.perf_counter()
            status, body = conn.exchange(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            took = time.perf_counter() - t0
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body.decode(), took

    def stop(self) -> None:
        """SIGTERM (the gateway drains and, under cProfile, dumps its
        stats), then SIGKILL if it has not exited in time."""
        proc = self.proc
        if proc.poll() is None:
            try:
                with open(f"/proc/{proc.pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.peak_rss_mb = int(line.split()[1]) / 1024.0
            except OSError:
                pass
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stderr is not None:
            proc.stderr.close()


def metric_total(text: str, name: str) -> float:
    """Sum of every series of ``name`` in a Prometheus text scrape."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name) : len(name) + 1] in (" ", "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total
