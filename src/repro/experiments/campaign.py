"""Declarative campaigns: many sweeps as one resumable request.

A :class:`CampaignSpec` is the ``executeppr``-style processing
request: it names a sequence of *stages* (each a registered
:class:`ExperimentSpec` — or a ``module:attr`` reference — plus axis
subsets, parameter overrides, a seed root, a scale, and QA checks).
:class:`CampaignRunner` executes the request stage by stage through
:func:`~repro.experiments.runner.run_sweep` and any
:class:`~repro.experiments.executors.Executor`:

* with a :class:`~repro.experiments.context.CampaignContext`, every
  completed point is journaled immediately, so a killed campaign
  resumes from exactly the unfinished points — same rows, byte for
  byte, as an uninterrupted run;
* per-stage rows/meta/QA artifacts land under ``<dir>/artifacts/``
  and feed the HTML renderer (``repro-campaign report``).

Requests load from JSON files or from Python files exposing a
``CAMPAIGN`` attribute (for campaigns that need closures or computed
axes); both normalize through :meth:`CampaignSpec.to_dict`, which is
what a campaign directory persists.  A malformed request raises
:class:`~repro.common.errors.ConfigError`, never a bare ``TypeError``.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, expect_type
from repro.experiments import qa as qa_mod
from repro.experiments.context import CampaignContext, point_key
from repro.experiments.executors import (
    Executor,
    SerialExecutor,
    SubprocessExecutor,
    resolve_spec,
)
from repro.experiments.qa import QaCheck, QaReport
from repro.experiments.runner import SweepResult, run_sweep
from repro.experiments.spec import ExperimentSpec


#: What one axis value may be: a request file's axes are lists of these.
_JSON_SCALARS = (str, int, float, bool, type(None))


@dataclass
class CampaignStage:
    """One stage of a campaign: a spec reference plus its knobs."""

    experiment: str
    name: str = ""
    axes: Optional[Mapping[str, Sequence[Any]]] = None
    overrides: Optional[Mapping[str, Any]] = None
    base_seed: Optional[int] = None
    scale: Optional[float] = None
    qa: Sequence[QaCheck] = ()

    def __post_init__(self) -> None:
        if not expect_type("stage experiment", self.experiment, str):
            raise ConfigError("campaign stage needs an experiment reference")
        expect_type("stage name", self.name, str)
        if self.axes is not None:
            for axis, values in expect_type("stage axes", self.axes, Mapping).items():
                expect_type(f"values of axis {axis!r}", values, (list, tuple))
                for value in values:
                    # A list or object would only fail inside a point
                    # function, after the campaign has started.
                    if not isinstance(value, _JSON_SCALARS):
                        raise ConfigError(
                            f"axis {axis!r} value {value!r} is not a JSON "
                            "scalar (string, number, boolean or null)"
                        )
        if self.overrides is not None:
            expect_type("stage overrides", self.overrides, Mapping)
        if self.base_seed is not None:
            expect_type("stage base_seed", self.base_seed, int)
        if self.scale is not None:
            expect_type("stage scale", self.scale, (int, float))
        if not self.name:
            # module:attr references make poor filenames; use the attr.
            self.name = self.experiment.rsplit(":", 1)[-1]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"experiment": self.experiment, "name": self.name}
        if self.axes is not None:
            out["axes"] = {k: list(v) for k, v in self.axes.items()}
        if self.overrides is not None:
            out["overrides"] = dict(self.overrides)
        if self.base_seed is not None:
            out["base_seed"] = self.base_seed
        if self.scale is not None:
            out["scale"] = self.scale
        if self.qa:
            out["qa"] = [check.to_dict() for check in self.qa]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignStage":
        expect_type("campaign stage", data, Mapping)
        checks = expect_type("stage qa", data.get("qa", ()), (list, tuple))
        return cls(
            experiment=data.get("experiment", ""),
            name=data.get("name", ""),
            axes=data.get("axes"),
            overrides=data.get("overrides"),
            base_seed=data.get("base_seed"),
            scale=data.get("scale"),
            qa=tuple(QaCheck.from_dict(c) for c in checks),
        )


@dataclass
class CampaignSpec:
    """A whole campaign request: named stages plus shared defaults."""

    name: str
    stages: Sequence[CampaignStage]
    scale: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if not expect_type("campaign name", self.name, str):
            raise ConfigError("campaign needs a name")
        expect_type("campaign scale", self.scale, (int, float))
        expect_type("campaign description", self.description, str)
        if not self.stages:
            raise ConfigError(f"campaign {self.name!r} needs >= 1 stage")
        seen = set()
        for stage in self.stages:
            if stage.name in seen:
                raise ConfigError(
                    f"campaign {self.name!r} has duplicate stage "
                    f"name {stage.name!r}"
                )
            seen.add(stage.name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.name,
            "description": self.description,
            "scale": self.scale,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        expect_type("campaign request", data, Mapping)
        stages = expect_type("campaign stages", data.get("stages", ()), (list, tuple))
        return cls(
            name=data.get("campaign") or data.get("name") or "",
            description=data.get("description", ""),
            scale=data.get("scale", 1.0),
            stages=tuple(CampaignStage.from_dict(s) for s in stages),
        )


def load_campaign(path: str) -> CampaignSpec:
    """Load a campaign request from a ``.json`` or ``.py`` file.

    Python requests expose a module-level ``CAMPAIGN`` — either a
    :class:`CampaignSpec` or a request dict — for campaigns whose
    axes/overrides want to be computed."""
    if path.endswith(".py"):
        spec = importlib.util.spec_from_file_location("_campaign_request", path)
        if spec is None or spec.loader is None:
            raise ConfigError(f"cannot import campaign file {path!r}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        request = getattr(module, "CAMPAIGN", None)
        if isinstance(request, CampaignSpec):
            return request
        if isinstance(request, Mapping):
            return CampaignSpec.from_dict(request)
        raise ConfigError(
            f"{path!r} must define CAMPAIGN as a CampaignSpec or dict"
        )
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read campaign request {path!r}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"campaign request {path!r} is not valid JSON: {exc}")
    return CampaignSpec.from_dict(data)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


@dataclass
class StageResult:
    """One executed stage: the sweep result plus QA and resume stats."""

    stage: str
    result: SweepResult
    qa: QaReport
    #: High-water mark of this process's resident set when the stage
    #: finished (MiB): non-decreasing across stages, so the stage that
    #: raised it is the first to show the new value.  Pool and
    #: subprocess workers are not in it.
    peak_rss_mb: float = 0.0

    @property
    def verdict(self) -> str:
        return self.qa.verdict

    @property
    def journal_hits(self) -> int:
        """Points of this stage served from the campaign journal."""
        return self.result.points_cached


@dataclass
class CampaignResult:
    """All stages of one campaign attempt."""

    campaign: str
    stages: List[StageResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def verdict(self) -> str:
        return qa_mod.worst_verdict([s.qa for s in self.stages])

    @property
    def journal_hits(self) -> int:
        return sum(s.journal_hits for s in self.stages)


def _resolve_stage(
    campaign: CampaignSpec, stage: CampaignStage
) -> Tuple[ExperimentSpec, float]:
    """The spec a stage runs and the scale it runs at."""
    spec = resolve_spec(stage.experiment)
    return spec, campaign.scale if stage.scale is None else stage.scale


class CampaignRunner:
    """Execute a :class:`CampaignSpec` stage by stage.

    ``executor`` defaults to serial; ``context`` defaults to nothing
    persistent (pass a :class:`CampaignContext` for journaling,
    artifacts, and resumability — the runner persists the request and
    writes per-stage artifacts as stages finish)."""

    def __init__(
        self,
        campaign: CampaignSpec,
        executor: Optional[Executor] = None,
        context: Optional[CampaignContext] = None,
    ):
        self.campaign = campaign
        self.executor = executor if executor is not None else SerialExecutor()
        self.context = context

    # ------------------------------------------------------------------
    def _stage_executor(self, stage: CampaignStage) -> Executor:
        """Subprocess workers resolve specs by reference, and the
        reference is per-stage — hand each stage its own copy."""
        executor = self.executor
        if isinstance(executor, SubprocessExecutor) and executor.ref is None:
            executor = copy.copy(executor)
            executor.ref = stage.experiment
        return executor

    def run(self) -> CampaignResult:
        start = time.time()
        out = CampaignResult(campaign=self.campaign.name)
        for stage_result in self.iter_run():
            out.stages.append(stage_result)
        out.elapsed_s = time.time() - start
        return out

    def iter_run(self):
        """Execute stage by stage, yielding each :class:`StageResult`
        as it completes (artifacts are written before the yield, so a
        consumer crash never loses a finished stage)."""
        context = self.context
        if context is not None:
            context.save_request(self.campaign.to_dict())
        for stage in self.campaign.stages:
            spec, scale = _resolve_stage(self.campaign, stage)
            executor = self._stage_executor(stage)
            result = run_sweep(
                spec,
                scale=scale,
                axes=stage.axes,
                overrides=stage.overrides,
                base_seed=stage.base_seed,
                executor=executor,
                context=context,
            )
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb = round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
            )
            checks = [*spec.qa_checks, *stage.qa]
            report = qa_mod.evaluate(stage.name, checks, result.rows)
            if context is not None:
                context.write_stage_artifacts(
                    stage.name,
                    rows_payload=result.rows_json_dict(),
                    meta_payload={
                        "stage": stage.name,
                        "experiment": stage.experiment,
                        "scale": scale,
                        "executor": executor.describe(),
                        "points_total": result.points_total,
                        "journal_hits": result.points_cached,
                        "elapsed_s": round(result.elapsed_s, 3),
                        "peak_rss_mb": peak_rss_mb,
                    },
                    qa_payload=report.to_dict(),
                )
            yield StageResult(
                stage=stage.name,
                result=result,
                qa=report,
                peak_rss_mb=peak_rss_mb,
            )
        if context is not None:
            context.close()


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------


def campaign_status(
    campaign: CampaignSpec, context: CampaignContext
) -> List[Tuple[str, int, int]]:
    """Per-stage resume picture: ``(stage, points done, points total)``.

    Pure bookkeeping — expansion is side-effect free, so asking for
    status never executes anything."""
    done_keys = set(context.completed_keys())
    status: List[Tuple[str, int, int]] = []
    for stage in campaign.stages:
        spec, scale = _resolve_stage(campaign, stage)
        points = spec.expand(
            axes=stage.axes, overrides=stage.overrides, base_seed=stage.base_seed
        )
        done = sum(point_key(spec.name, p, scale) in done_keys for p in points)
        status.append((stage.name, done, len(points)))
    return status


def load_campaign_dir(root: str) -> Tuple[CampaignSpec, CampaignContext]:
    """Open an existing campaign directory (for resume/status/report)."""
    if not os.path.isdir(root):
        raise ConfigError(f"no campaign directory at {root!r}")
    context = CampaignContext(root)
    request = context.load_request()
    if request is None:
        raise ConfigError(
            f"{root!r} has no readable {os.path.basename(context.request_path)}; "
            "was the campaign ever started?"
        )
    return CampaignSpec.from_dict(request), context
