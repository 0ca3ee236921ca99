"""Sweep execution for :class:`ExperimentSpec`: one loop, :func:`run_sweep`.

It expands the spec into points (pure, :mod:`repro.experiments.spec`),
serves the points an optional
:class:`~repro.experiments.context.CampaignContext` journal already
holds, runs the rest through an
:class:`~repro.experiments.executors.Executor` (in-process or a pool
on this host), journals each fragment as it lands, and merges the
fragments into rows in grid order.

Determinism: every point re-seeds the worker's global RNG from a seed
derived from ``(spec seed, spec name, point index, variant)``, and all
simulation randomness already flows from the explicit config seeds, so
every executor produces byte-identical rows to a serial run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.context import CampaignContext, point_key
from repro.experiments.executors import Executor, make_executor
from repro.experiments.spec import ExperimentSpec, Point

# ----------------------------------------------------------------------
# result assembly
# ----------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: List[Dict[str, Any]]) -> str:
    """Render dict rows as an aligned text table (column order follows
    ``headers``; missing cells render empty)."""
    cells = [[_fmt(row.get(h, "")) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row_cells in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row_cells, widths)))
    return "\n".join(lines)


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


# ----------------------------------------------------------------------
# the sweep loop
# ----------------------------------------------------------------------


def run_sweep(
    spec: ExperimentSpec,
    scale: float = 1.0,
    jobs: int = 1,
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    base_seed: Optional[int] = None,
    executor: Optional[Executor] = None,
    context: Optional[CampaignContext] = None,
) -> SweepResult:
    """Expand ``spec``, serve what ``context`` holds, execute the rest,
    journal each fragment as it lands, and merge rows in grid order.

    ``scale`` is forwarded to every point; ``axes`` restricts axes to
    subsets and ``overrides`` wins over defaults/axis/variant values;
    ``base_seed`` replaces the spec's seed root.  ``executor`` defaults
    to :func:`make_executor` of ``jobs``, and its ``jobs`` is what the
    result reports.  ``context`` (e.g. ``CampaignContext(directory)``)
    serves fragments journaled by earlier runs."""
    start = time.time()
    if executor is None:
        executor = make_executor(jobs=jobs)
    points = spec.expand(axes=axes, overrides=overrides, base_seed=base_seed)
    fragments: List[Optional[Dict[str, Any]]] = [None] * len(points)
    keys: Dict[int, str] = {}
    pending: List[Point] = []
    for point in points:
        if context is not None:
            keys[point.index] = point_key(spec.name, point, scale)
            fragments[point.index] = context.get(keys[point.index])
        if fragments[point.index] is None:
            pending.append(point)

    for index, fragment in executor.run(spec, pending, scale):
        fragments[index] = fragment
        if context is not None:
            context.record(keys[index], fragment, stage=spec.name)

    rows = merge_rows(spec, points, fragments)
    return SweepResult(
        spec_name=spec.name,
        headers=result_headers(spec, rows),
        rows=rows,
        scale=scale,
        jobs=executor.jobs,
        points_total=len(points),
        points_cached=len(points) - len(pending),
        elapsed_s=time.time() - start,
        description=spec.description,
    )
