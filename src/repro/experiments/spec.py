"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes a whole figure, table, or ablation
as data: a grid of *axes* (one row per grid point), a list of
*variants* (each contributing columns to the row), shared *defaults*,
an optional *derived-config hook*, and a point function that runs one
``(grid point, variant)`` cell and returns its column fragment.

The spec never runs anything itself —
:func:`repro.experiments.runner.run_sweep` expands it into
:class:`Point` objects and executes them, serially or across worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed


@dataclass(frozen=True)
class Variant:
    """One experiment variant (e.g. a mechanism or build flavor).

    ``params`` is merged over the spec defaults and axis values for the
    point; the variant ``name`` is exposed to the point function so it
    can label its output columns."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)


#: A spec with no explicit variants runs each grid point once.
DEFAULT_VARIANT = Variant("default")


@dataclass(frozen=True)
class PointContext:
    """Everything a point function may depend on.  ``seed`` is derived
    deterministically from the spec seed and the point's position, so a
    sweep is reproducible regardless of worker scheduling."""

    spec_name: str
    params: Mapping[str, Any]
    axis_values: Mapping[str, Any]
    variant: str
    scale: float
    seed: int


@dataclass(frozen=True)
class Point:
    """One executable cell of the expanded sweep."""

    index: int
    row_key: Tuple[Any, ...]
    axis_values: Dict[str, Any]
    variant: Variant
    params: Dict[str, Any]
    seed: int


PointFn = Callable[[PointContext], Mapping[str, Any]]


@dataclass
class ExperimentSpec:
    """A declarative sweep: ``axes`` x ``variants`` -> rows.

    ``point_fn(ctx)`` runs one cell and returns a dict of columns; the
    runner merges all variants of a grid point into one row (axis
    values first, then fragments in variant order) and finally applies
    ``finalize_row`` for derived columns.  ``derive`` is the
    derived-config hook: it maps the merged parameter dict to the final
    one (e.g. building a ``ClusterConfig`` from a scalar axis value)
    before execution, so point functions stay trivial.

    ``qa_checks`` holds :class:`repro.experiments.qa.QaCheck`
    assertions scored against the finished rows by the campaign layer
    (and ``repro-campaign report``); campaign stages may add their own
    on top.  The spec itself never evaluates them.
    """

    name: str
    point_fn: PointFn
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    variants: Sequence[Variant] = (DEFAULT_VARIANT,)
    defaults: Mapping[str, Any] = field(default_factory=dict)
    derive: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
    finalize_row: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
    headers: Sequence[str] = ()
    description: str = ""
    qa_checks: Sequence[Any] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("experiment spec needs a name")
        if not self.variants:
            raise ConfigError(f"experiment {self.name!r} needs >= 1 variant")

    def expand(
        self,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        base_seed: Optional[int] = None,
    ) -> List[Point]:
        """Expand the (possibly overridden) grid into executable points.

        Expansion order is deterministic: axes vary outermost-first in
        declaration order, variants innermost — matching the nesting of
        the hand-rolled loops these specs replaced.  Point seeds derive
        from ``base_seed``, else the spec's ``defaults["seed"]``, else 1."""
        grid = dict(self.axes)
        for axis, values in (axes or {}).items():
            if axis not in grid:
                raise ConfigError(
                    f"experiment {self.name!r} has no axis {axis!r}; "
                    f"axes are {tuple(grid)}"
                )
            grid[axis] = tuple(values)
        if base_seed is None:
            base_seed = self.defaults.get("seed", 1)

        points: List[Point] = []
        for axis_values in _grid_product(grid):
            row_key = tuple(axis_values.values())
            for variant in self.variants:
                params = dict(self.defaults)
                params.update(axis_values)
                params.update(variant.params)
                if overrides:
                    params.update(overrides)
                if self.derive is not None:
                    params = dict(self.derive(params))
                index = len(points)
                points.append(
                    Point(
                        index=index,
                        row_key=row_key,
                        axis_values=dict(axis_values),
                        variant=variant,
                        params=params,
                        seed=derive_seed(base_seed, self.name, index, variant.name),
                    )
                )
        return points


def _grid_product(grid: Mapping[str, Sequence[Any]]):
    """Cartesian product of the axes, preserving declaration order."""
    names = list(grid)
    if not names:
        yield {}
        return

    def rec(i: int, acc: Dict[str, Any]):
        if i == len(names):
            yield dict(acc)
            return
        for value in grid[names[i]]:
            acc[names[i]] = value
            yield from rec(i + 1, acc)
        acc.pop(names[i], None)

    yield from rec(0, {})
