#!/usr/bin/env python3
"""The reachability census's composite drivers: entry points that only
make sense as a sequence in one process.

* ``campaign`` — ``repro-campaign run`` on a one-stage request
  serially and with ``--jobs 2``, byte-comparing the two runs'
  ``rows.json``, then ``status``, ``resume`` and ``report`` on the
  serial run's directory.
* ``serve`` — ``repro-serve`` in this process on a free port with
  ``--max-sessions 8``; a client thread drives ``repro-load
  --url`` against it, sends one malformed request, scrapes
  ``/metrics`` and sends SIGTERM; after the drain, ``repro-load
  --replay`` and ``--sweep`` run in process.

Each exits 0 only if every step did what it should.

Usage::

    PYTHONPATH=src python tools/reach_drivers.py campaign
    PYTHONPATH=src python tools/reach_drivers.py serve
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import List

#: Two points, so the pool forks.
CAMPAIGN_REQUEST = {
    "campaign": "reach",
    "scale": 0.05,
    "stages": [
        {
            "experiment": "fig10",
            "name": "fig10",
            "axes": {"object_size": [128, 1024]},
            "qa": [{"column": "object_size", "agg": "min", "lo": 1}],
        }
    ],
}


def _check(failures: List[str], what: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def campaign() -> int:
    from repro.experiments.campaign_cli import main

    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-campaign-") as tmp:
        request = os.path.join(tmp, "request.json")
        with open(request, "w") as fh:
            json.dump(CAMPAIGN_REQUEST, fh)
        runs = {"serial": [], "jobs": ["--jobs", "2"]}
        rows = {}
        for label, extra in runs.items():
            directory = os.path.join(tmp, label)
            code = main(["run", request, "--dir", directory, "--qa-gate", *extra])
            _check(failures, f"run {label} exits 0", code == 0)
            with open(os.path.join(directory, "artifacts", "fig10.rows.json")) as fh:
                rows[label] = fh.read()
        _check(failures, "serial and --jobs 2 write the same rows",
               len(set(rows.values())) == 1)
        directory = os.path.join(tmp, "serial")
        for command in ("status", "resume", "report"):
            _check(failures, f"{command} exits 0", main([command, directory]) == 0)
    return 1 if failures else 0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def _client(port: int, tmp: str, failures: List[str]) -> None:
    from repro.loadgen.cli import main as load_main
    from repro.serve.metrics import parse_samples

    base = f"http://127.0.0.1:{port}"
    try:
        for _ in range(200):
            try:
                if _get(base + "/readyz")[0] == 200:
                    break
            except OSError:
                pass
            time.sleep(0.05)
        report = os.path.join(tmp, "load.json")
        code = load_main(["--url", base, "--qps", "200", "--ops", "40",
                          "--seed", "3", "--output", report])
        _check(failures, "repro-load --url exits 0", code == 0)
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"PUT /v1/obj/key-1 HTTP/1.1\r\nContent-Length: x\r\n\r\n")
            status_line = sock.recv(4096).split(b"\r\n", 1)[0]
        _check(failures, "a malformed Content-Length answers 400",
               status_line.split()[1:2] == [b"400"])
        status, text = _get(base + "/metrics")
        samples = parse_samples(text)
        _check(failures, "/metrics counts the bad request",
               status == 200
               and samples.get('repro_http_errors_total{reason="bad_content_length"}', 0) >= 1)
    except Exception as exc:  # noqa: BLE001 - reported, then the server stops
        _check(failures, f"client raised {type(exc).__name__}: {exc}", False)
    finally:
        os.kill(os.getpid(), signal.SIGTERM)


def serve() -> int:
    from repro.loadgen.cli import main as load_main
    from repro.serve.cli import main as serve_main

    failures: List[str] = []
    port = _free_port()
    with tempfile.TemporaryDirectory(prefix="reach-serve-") as tmp:
        artifact = os.path.join(tmp, "final.prom")
        client = threading.Thread(target=_client, args=(port, tmp, failures))
        client.start()
        code = serve_main(["--port", str(port), "--max-sessions", "8",
                           "--metrics-artifact", artifact])
        client.join(timeout=60)
        _check(failures, "repro-serve drains and exits 0 on SIGTERM",
               code == 0 and os.path.exists(artifact) and not client.is_alive())
        code = load_main(["--replay", "--qps", "200000", "--ops", "200",
                          "--objects", "64"])
        _check(failures, "repro-load --replay exits 0", code == 0)
        code = load_main(["--sweep", "--steps", "2", "--ops-per-step", "100",
                          "--objects", "64",
                          "--output", os.path.join(tmp, "sweep.json")])
        _check(failures, "repro-load --sweep exits 0", code == 0)
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["campaign"]:
        sys.exit(campaign())
    if sys.argv[1:] == ["serve"]:
        sys.exit(serve())
    sys.exit(__doc__)
