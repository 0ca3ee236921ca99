"""Sweep execution for :class:`ExperimentSpec`.

The runner is now a thin orchestration layer over three pluggable
pieces (PR 9 split the old monolith):

* point **expansion** stays pure in :mod:`repro.experiments.spec`;
* an :class:`~repro.experiments.executors.Executor` turns pending
  points into fragments (in-process, pool, or multi-host workers);
* a :class:`~repro.experiments.context.RunContext` remembers completed
  fragments (in memory, or in a campaign's crash-resumable journal).

Determinism: every point re-seeds the worker's global RNG from a seed
derived from ``(spec seed, spec name, point index, variant)``, and all
simulation randomness already flows from the explicit config seeds, so
every executor produces byte-identical rows to a serial run.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.experiments.context import RunContext, point_key
from repro.experiments.executors import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    SubprocessExecutor,
)
from repro.experiments.spec import ExperimentSpec, Point
from repro.harness.report import format_table

# ----------------------------------------------------------------------
# result assembly (shared by SweepRunner and CampaignRunner)
# ----------------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def merge_rows(
    spec: ExperimentSpec,
    points: Sequence[Point],
    fragments: Sequence[Optional[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-point column fragments into rows in grid order.

    ``None`` means "point did not run" and contributes nothing; an
    empty dict is a *valid* fragment (a point that measured nothing
    but completed) and must not be confused with a missing one."""
    rows: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    order: List[Tuple[Any, ...]] = []
    for point in points:
        row = rows.get(point.row_key)
        if row is None:
            row = dict(point.axis_values)
            rows[point.row_key] = row
            order.append(point.row_key)
        fragment = fragments[point.index]
        if fragment is not None:
            row.update(fragment)
    finalized = []
    for key in order:
        row = rows[key]
        if spec.finalize_row is not None:
            row = dict(spec.finalize_row(row))
        finalized.append(row)
    return finalized


def result_headers(
    spec: ExperimentSpec, rows: Sequence[Dict[str, Any]]
) -> Tuple[str, ...]:
    return tuple(spec.headers) or (tuple(rows[0]) if rows else tuple(spec.axes))


@dataclass
class SweepResult:
    """Uniform sweep output: ordered headers + row dicts, plus metadata
    for artifacts and reporting."""

    spec_name: str
    headers: Tuple[str, ...]
    rows: List[Dict[str, Any]]
    scale: float
    jobs: int
    points_total: int
    points_cached: int
    elapsed_s: float
    description: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    def table(self) -> str:
        return format_table(self.headers, self.rows)

    def rows_json_dict(self) -> Dict[str, Any]:
        """The deterministic part of the artifact: identical bytes for
        identical rows, regardless of executor, timing, or resume."""
        return {
            "experiment": self.spec_name,
            "description": self.description,
            "scale": self.scale,
            "headers": list(self.headers),
            # Strict JSON: non-finite floats (e.g. a NaN ratio from a
            # zero-goodput tiny-scale run) become null, not bare NaN.
            "rows": [
                {k: _json_safe(v) for k, v in row.items()} for row in self.rows
            ],
        }

    def to_json_dict(self) -> Dict[str, Any]:
        payload = self.rows_json_dict()
        payload.update(
            {
                "jobs": self.jobs,
                "points_total": self.points_total,
                "points_cached": self.points_cached,
                "elapsed_s": round(self.elapsed_s, 3),
            }
        )
        return payload

    def write_json(self, path: str) -> None:
        # Write-then-rename: a run killed mid-write must never leave a
        # truncated artifact for downstream tooling to choke on.
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


class SweepRunner:
    """Expand a spec and execute every point through an executor.

    Parameters
    ----------
    spec:
        The experiment to run.
    scale:
        Measurement-window scale factor forwarded to every point.
    jobs:
        Worker processes; 1 runs in-process (no pool).  Ignored when
        an explicit ``executor`` is given.
    axes:
        Per-run axis overrides (e.g. a subset of object sizes).
    overrides:
        Parameter overrides merged over defaults/axis/variant values.
    base_seed:
        Override the spec's seed root for per-point worker seeding.
    executor:
        Execution strategy; defaults to serial (``jobs == 1``) or a
        ``multiprocessing`` pool.
    context:
        Completed-fragment store consulted before executing and fed as
        fragments complete (e.g. ``CampaignContext(directory)``, the
        journal that serves finished points to later runs).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        scale: float = 1.0,
        jobs: int = 1,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        base_seed: Optional[int] = None,
        executor: Optional[Executor] = None,
        context: Optional[RunContext] = None,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.spec = spec
        self.scale = scale
        self.jobs = jobs
        self.axes = axes
        self.overrides = overrides
        self.base_seed = base_seed
        if executor is None:
            executor = PoolExecutor(jobs) if jobs > 1 else SerialExecutor()
        self.executor = executor
        # Keep the artifact's reported parallelism truthful when the
        # executor was handed in directly (e.g. by a campaign).
        if isinstance(executor, PoolExecutor):
            self.jobs = executor.jobs
        elif isinstance(executor, SubprocessExecutor):
            self.jobs = executor.workers
        self.context = context

    # ------------------------------------------------------------------
    def run(self) -> SweepResult:
        start = time.time()
        points = self.spec.expand(
            axes=self.axes, overrides=self.overrides, base_seed=self.base_seed
        )
        fragments: List[Optional[Dict[str, Any]]] = [None] * len(points)

        pending: List[Point] = []
        keys: Dict[int, str] = {}
        if self.context is not None:
            for point in points:
                key = point_key(self.spec.name, point, self.scale)
                keys[point.index] = key
                known = self.context.get(key)
                if known is not None:
                    fragments[point.index] = known
                else:
                    pending.append(point)
        else:
            pending = list(points)

        cached_count = len(points) - len(pending)
        for index, fragment in self.executor.run(self.spec, pending, self.scale):
            fragments[index] = fragment
            if self.context is not None:
                self.context.record(keys[index], fragment, stage=self.spec.name)

        rows = merge_rows(self.spec, points, fragments)
        return SweepResult(
            spec_name=self.spec.name,
            headers=result_headers(self.spec, rows),
            rows=rows,
            scale=self.scale,
            jobs=self.jobs,
            points_total=len(points),
            points_cached=cached_count,
            elapsed_s=time.time() - start,
            description=self.spec.description,
        )


def run_sweep(
    spec: ExperimentSpec,
    scale: float = 1.0,
    jobs: int = 1,
    **kwargs: Any,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(spec, scale=scale, jobs=jobs, **kwargs).run()
