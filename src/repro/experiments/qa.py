"""Per-stage QA scoring for sweeps and campaigns.

A :class:`QaCheck` is a declarative assertion over one result column
("aggregate column C across the stage's rows with ``agg``; the value
must sit inside ``[min, max]``").  Specs attach baseline checks via
``ExperimentSpec.qa_checks``; campaign stages may add or tighten
checks per request.  Evaluation never raises on missing, non-numeric,
or non-finite data — a check that cannot be evaluated *fails* with a
reason, because silently green QA on absent columns is how reports
rot.  NaN gets the same treatment explicitly: ``NaN >= lo`` is False
and ``NaN <= hi`` is False, so under the plain bound arithmetic a NaN
aggregate *happened* to fail ``lo``-bounded checks while the
order-dependence of ``min``/``max`` over NaN decided others by
coin-flip — the verdict came from IEEE comparison accidents, not from
a decision.  Non-finite values now short-circuit to an explicit FAIL
with the offending value in the reason.

The verdict model is deliberately small: each check passes or fails,
a stage's verdict is ``pass``/``fail`` (or ``none`` when it has no
checks), and the campaign verdict is the worst stage verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.common.errors import ConfigError, expect_type

#: Supported row aggregations.
_AGGS = ("min", "max", "mean", "sum", "first", "last")


@dataclass(frozen=True)
class QaCheck:
    """One column assertion: ``lo <= agg(column over rows) <= hi``."""

    column: str
    agg: str = "max"
    lo: Optional[float] = None
    hi: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        expect_type("QA column", self.column, str)
        expect_type("QA label", self.label, str)
        for bound in (self.lo, self.hi):
            if bound is not None:
                expect_type(f"QA bound on {self.column!r}", bound, (int, float))
        if self.agg not in _AGGS:
            raise ConfigError(
                f"QA agg must be one of {_AGGS}, got {self.agg!r}"
            )
        if self.lo is None and self.hi is None:
            raise ConfigError(
                f"QA check on {self.column!r} needs a lo and/or hi bound"
            )

    def describe(self) -> str:
        if self.label:
            return self.label
        bounds = []
        if self.lo is not None:
            bounds.append(f">= {self.lo:g}")
        if self.hi is not None:
            bounds.append(f"<= {self.hi:g}")
        return f"{self.agg}({self.column}) {' and '.join(bounds)}"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"column": self.column, "agg": self.agg}
        if self.lo is not None:
            out["lo"] = self.lo
        if self.hi is not None:
            out["hi"] = self.hi
        if self.label:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QaCheck":
        expect_type("QA check", data, Mapping)
        return cls(
            column=data.get("column"),
            agg=data.get("agg", "max"),
            lo=data.get("lo"),
            hi=data.get("hi"),
            label=data.get("label", ""),
        )


def _aggregate(values: List[float], agg: str) -> float:
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    if agg == "mean":
        return sum(values) / len(values)
    if agg == "sum":
        return sum(values)
    if agg == "first":
        return values[0]
    return values[-1]  # "last"


@dataclass
class QaOutcome:
    """One evaluated check."""

    check: QaCheck
    passed: bool
    observed: Optional[float]
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check.to_dict(),
            "describe": self.check.describe(),
            "passed": self.passed,
            "observed": self.observed,
            "reason": self.reason,
        }


@dataclass
class QaReport:
    """All checks for one stage, plus the stage verdict."""

    stage: str
    outcomes: List[QaOutcome]

    @property
    def verdict(self) -> str:
        if not self.outcomes:
            return "none"
        return "pass" if all(o.passed for o in self.outcomes) else "fail"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "verdict": self.verdict,
            "checks": [o.to_dict() for o in self.outcomes],
        }


def evaluate(
    stage: str,
    checks: Sequence[QaCheck],
    rows: Sequence[Mapping[str, Any]],
) -> QaReport:
    """Score one stage's merged rows against its checks."""
    outcomes: List[QaOutcome] = []
    for check in checks:
        values: List[float] = []
        bad_reason = ""
        for row in rows:
            value = row.get(check.column)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                bad_reason = (
                    f"non-numeric value {value!r} in column {check.column!r}"
                )
                break
            if not math.isfinite(value):
                # Caught per value, not post-aggregation: Python's
                # min/max over NaN are order-dependent (the comparison
                # is False both ways, so whichever operand the loop
                # keeps wins), which let NaN rows slip through bound
                # checks by IEEE-comparison accident.
                bad_reason = (
                    f"non-finite value {value!r} in column {check.column!r}"
                )
                break
            values.append(float(value))
        if bad_reason:
            outcomes.append(QaOutcome(check, False, None, bad_reason))
            continue
        if not values:
            outcomes.append(
                QaOutcome(
                    check,
                    False,
                    None,
                    f"column {check.column!r} absent from every row",
                )
            )
            continue
        observed = _aggregate(values, check.agg)
        if not math.isfinite(observed):
            # Belt and braces: finite inputs can still overflow to
            # inf under sum/mean.
            outcomes.append(
                QaOutcome(
                    check,
                    False,
                    observed,
                    f"aggregate {check.agg}({check.column!r}) is "
                    f"non-finite ({observed!r})",
                )
            )
            continue
        ok = (check.lo is None or observed >= check.lo) and (
            check.hi is None or observed <= check.hi
        )
        reason = "" if ok else f"observed {observed:g} outside bounds"
        outcomes.append(QaOutcome(check, ok, observed, reason))
    return QaReport(stage=stage, outcomes=outcomes)


def worst_verdict(reports: Sequence[QaReport]) -> str:
    """Campaign-level verdict: fail > pass > none."""
    verdicts = {report.verdict for report in reports}
    if "fail" in verdicts:
        return "fail"
    if "pass" in verdicts:
        return "pass"
    return "none"
