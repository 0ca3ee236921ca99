"""Point execution strategies for sweeps and campaigns.

The expansion of an :class:`~repro.experiments.spec.ExperimentSpec`
into :class:`~repro.experiments.spec.Point` objects is pure; an
*executor* is the pluggable strategy that turns pending points into
column fragments:

* :class:`SerialExecutor` — in-process, one point at a time;
* :class:`PoolExecutor` — a ``multiprocessing`` pool on this host;
* :class:`SubprocessExecutor` — multi-host style fan-out: pickled
  points are shipped to worker processes launched from a command
  template (plain subprocesses by default, ``ssh host ...`` for real
  remote hosts) and fragments stream back over stdout as they finish.

Every executor yields ``(point.index, fragment)`` pairs as points
complete, so callers can journal each fragment immediately (crash
resume) while still merging rows in deterministic grid order.
Determinism does not depend on the executor: each point re-seeds the
global RNG from its own derived seed, so serial, pooled, and
subprocess execution produce byte-identical fragments.
"""

from __future__ import annotations

import base64
import importlib
import multiprocessing
import os
import pickle
import queue
import random
import shlex
import subprocess
import sys
import threading
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigError
from repro.experiments import registry
from repro.experiments.spec import ExperimentSpec, Point, PointContext

#: One completed point: ``(point.index, column fragment)``.
Fragment = Tuple[int, Dict[str, Any]]


def execute_point(spec: ExperimentSpec, point: Point, scale: float) -> Dict[str, Any]:
    """Run one point under a deterministic per-point global-RNG seed.

    The seed applies identically under every executor, so a point
    function that reaches for the global ``random`` module still
    yields identical rows at any parallelism; the caller's RNG state
    is restored afterwards, so sweeps have no side effect on library
    users."""
    ctx = PointContext(
        spec_name=spec.name,
        params=point.params,
        axis_values=point.axis_values,
        variant=point.variant.name,
        scale=scale,
        seed=point.seed,
    )
    outer_state = random.getstate()
    random.seed(point.seed)
    try:
        fragment = spec.point_fn(ctx)
    finally:
        random.setstate(outer_state)
    if not isinstance(fragment, Mapping):
        raise ConfigError(
            f"experiment {spec.name!r} point_fn must return a column dict, "
            f"got {type(fragment).__name__}"
        )
    return dict(fragment)


class Executor:
    """Strategy interface: ``run(spec, points, scale)`` streams
    ``(index, fragment)`` for each point, and ``describe()`` labels
    artifacts and status output; every executor below defines both.

    Implementations may complete points in any order; callers
    reassemble by ``point.index``.  ``jobs`` is how many points run at
    once (a class attribute here, so a subclass need not call
    ``__init__``)."""

    jobs: int = 1


class SerialExecutor(Executor):
    """In-process execution, one point at a time, in submission order."""

    def run(
        self, spec: ExperimentSpec, points: Sequence[Point], scale: float
    ) -> Iterator[Fragment]:
        for point in points:
            yield point.index, execute_point(spec, point, scale)

    def describe(self) -> str:
        return "serial"


# ----------------------------------------------------------------------
# multiprocessing pool
# ----------------------------------------------------------------------

#: Spec handed to pool workers via the initializer (inherited directly
#: under the ``fork`` start method, so closures in ``point_fn`` work).
_WORKER_SPEC: Optional[ExperimentSpec] = None


def _init_worker(spec: ExperimentSpec) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = spec


def _pool_entry(payload: Tuple[Point, float]) -> Tuple[int, Dict[str, Any]]:
    point, scale = payload
    assert _WORKER_SPEC is not None, "pool initializer did not run"
    return point.index, execute_point(_WORKER_SPEC, point, scale)


def _fork_or_spawn() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


class PoolExecutor(Executor):
    """``multiprocessing`` pool on this host.

    Fragments stream back in submission order (``imap``), so a crash
    mid-sweep leaves a journal holding exactly the completed prefix
    plus whatever later points happened to finish first in their
    worker."""

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(
        self, spec: ExperimentSpec, points: Sequence[Point], scale: float
    ) -> Iterator[Fragment]:
        if not points:
            return
        if self.jobs == 1 or len(points) == 1:
            yield from SerialExecutor().run(spec, points, scale)
            return
        ctx = _fork_or_spawn()
        workers = min(self.jobs, len(points))
        with ctx.Pool(
            processes=workers, initializer=_init_worker, initargs=(spec,)
        ) as pool:
            payloads = [(p, scale) for p in points]
            for index, fragment in pool.imap(_pool_entry, payloads):
                yield index, fragment

    def describe(self) -> str:
        return f"pool:{self.jobs}"


# ----------------------------------------------------------------------
# multi-host worker fan-out
# ----------------------------------------------------------------------

#: Default worker invocation: this interpreter, the worker module.
DEFAULT_WORKER_COMMAND = "{python} -m repro.experiments.worker"


def resolve_spec(ref: str) -> ExperimentSpec:
    """Resolve a spec reference: ``module:attr`` or a registry name.

    Workers are separate processes (possibly on other hosts), so they
    cannot receive ``point_fn`` closures; they re-resolve the spec the
    same way.  A reference naming nothing raises :class:`ConfigError`."""
    if ":" in ref:
        module_name, attr = ref.split(":", 1)
        try:
            spec = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot resolve experiment {ref!r}: {exc}") from None
        if not isinstance(spec, ExperimentSpec):
            raise ConfigError(f"{ref!r} is not an ExperimentSpec")
        return spec
    return registry.get(ref)


class SubprocessExecutor(Executor):
    """Ship pickled points to worker processes and stream fragments back.

    Each worker is launched from ``command`` (a shell-style template;
    ``{python}`` expands to :data:`sys.executable`).  The default runs
    local subprocesses — two of them already exercise the full
    multi-host protocol — while e.g. ``"ssh build2 python3 -m
    repro.experiments.worker"`` fans the same protocol out to another
    machine (the remote side needs the repo importable).

    Points are dealt round-robin into one chunk per worker, each chunk
    is sent as one pickled payload on the worker's stdin, and workers
    write one JSON line per completed point to stdout (fragments
    base64-pickled so value types survive transport exactly).  The
    spec itself never crosses the wire: workers re-resolve it by
    *reference* — the registry name, or ``module:attr`` for specs
    living outside the registry (set ``ref`` explicitly for those).
    ``jobs`` is the worker count.
    """

    def __init__(
        self,
        workers: int = 2,
        command: Optional[str] = None,
        ref: Optional[str] = None,
        env: Optional[Mapping[str, str]] = None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.jobs = workers
        self.command = command or DEFAULT_WORKER_COMMAND
        self.ref = ref
        self.env = dict(env) if env is not None else None

    # ------------------------------------------------------------------
    def _argv(self) -> List[str]:
        return [
            part.replace("{python}", sys.executable)
            for part in shlex.split(self.command)
        ]

    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        if self.env:
            env.update(self.env)
        # Local workers must be able to import repro even when the
        # parent was launched via PYTHONPATH=src: propagate the
        # package root explicitly.
        pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        path = env.get("PYTHONPATH", "")
        parts = path.split(os.pathsep) if path else []
        if pkg_root not in parts:
            env["PYTHONPATH"] = os.pathsep.join([pkg_root, *parts])
        return env

    def run(
        self, spec: ExperimentSpec, points: Sequence[Point], scale: float
    ) -> Iterator[Fragment]:
        if not points:
            return
        ref = self.ref or spec.name
        chunks: List[List[Point]] = [[] for _ in range(min(self.jobs, len(points)))]
        for i, point in enumerate(points):
            chunks[i % len(chunks)].append(point)

        results: "queue.Queue[Any]" = queue.Queue()
        argv, env = self._argv(), self._worker_env()
        procs: List[subprocess.Popen] = []
        readers: List[threading.Thread] = []
        expected = len(points)
        try:
            for chunk in chunks:
                payload = pickle.dumps(
                    {"ref": ref, "scale": scale, "points": chunk}
                )
                proc = subprocess.Popen(
                    argv,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                )
                procs.append(proc)
                thread = threading.Thread(
                    target=_feed_and_read,
                    args=(proc, payload, len(chunk), results),
                )
                thread.daemon = True
                thread.start()
                readers.append(thread)
            received = 0
            while received < expected:
                item = results.get()
                if isinstance(item, WorkerError):
                    raise ConfigError(str(item))
                index, blob = item
                yield index, pickle.loads(base64.b64decode(blob))
                received += 1
            for thread in readers:
                thread.join()
            for proc in procs:
                if proc.wait() != 0:
                    raise ConfigError(
                        f"campaign worker {argv!r} exited with {proc.returncode}"
                    )
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def describe(self) -> str:
        return f"workers:{self.jobs}"


class WorkerError(Exception):
    """A worker reported a point failure or died mid-stream."""


def _feed_and_read(
    proc: subprocess.Popen,
    payload: bytes,
    expected: int,
    results: "queue.Queue[Any]",
) -> None:
    """Write one pickled payload, then relay the worker's JSON lines."""
    import json

    seen = 0
    try:
        assert proc.stdin is not None and proc.stdout is not None
        proc.stdin.write(payload)
        proc.stdin.close()
        for raw in proc.stdout:
            line = raw.decode().strip()
            if not line:
                continue
            msg = json.loads(line)
            if "error" in msg:
                results.put(WorkerError(msg["error"]))
                return
            results.put((msg["index"], msg["data"]))
            seen += 1
        if seen < expected:
            code = proc.wait()
            results.put(
                WorkerError(
                    f"worker exited (code {code}) after {seen}/{expected} points"
                )
            )
    except Exception as exc:  # relay instead of dying silently
        results.put(WorkerError(f"worker stream failed after {seen} points: {exc}"))


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------


def make_executor(
    jobs: Optional[int] = None,
    workers: Optional[int] = None,
    command: Optional[str] = None,
) -> Executor:
    """Build an executor from the CLI's counts.

    ``workers`` means subprocess workers (launched from ``command``),
    ``jobs > 1`` a pool on this host, and anything else a serial run.
    Giving both counts is an error rather than one being ignored."""
    if workers is not None:
        if jobs is not None:
            raise ConfigError("give --jobs or --workers, not both")
        return SubprocessExecutor(workers=workers, command=command)
    if command is not None:
        raise ConfigError("--worker-command needs --workers")
    jobs = 1 if jobs is None else jobs
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return PoolExecutor(jobs) if jobs > 1 else SerialExecutor()
