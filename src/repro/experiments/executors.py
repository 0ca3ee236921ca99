"""Point execution strategies for sweeps and campaigns.

The expansion of an :class:`~repro.experiments.spec.ExperimentSpec`
into :class:`~repro.experiments.spec.Point` objects is pure; an
*executor* is the strategy that turns pending points into column
fragments:

* :class:`SerialExecutor` — in-process, one point at a time;
* :class:`PoolExecutor` — a ``multiprocessing`` pool on this host, the
  one way a sweep runs in parallel.

Every executor yields ``(point.index, fragment)`` pairs as points
complete, so callers can journal each fragment immediately (crash
resume) while still merging rows in deterministic grid order.
Determinism does not depend on the executor: each point re-seeds the
global RNG from its own derived seed, so serial and pooled execution
produce byte-identical fragments.
"""

from __future__ import annotations

import multiprocessing
import random
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
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
# factory
# ----------------------------------------------------------------------


def make_executor(jobs: Optional[int] = None) -> Executor:
    """Build an executor from the CLI's count: ``jobs > 1`` is a pool
    on this host, anything else a serial run; ``jobs < 1`` is an error."""
    jobs = 1 if jobs is None else jobs
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return PoolExecutor(jobs) if jobs > 1 else SerialExecutor()
