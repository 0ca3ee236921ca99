"""The saturation sweep: step offered QPS until the cluster collapses.

Each step builds a fresh simulated cluster and replays a freshly
synthesized arrival trace through :meth:`repro.serve.bridge.SimBridge.
replay` (virtual time, fully deterministic).  Offered QPS grows
geometrically until the achieved/offered ratio drops below the
collapse threshold — the open-loop saturation knee — or the step
budget runs out.  The artifact records every step plus the measured
peak, which is what docs/serving.md quotes as the honest
requests-per-second number for the default 4-shard cluster.

Two consumers:

* ``repro-load --sweep`` writes the JSON artifact from the CLI;
* the registered ``serve_load_sweep`` experiment spec runs a scaled
  sweep per mechanism under the harness (serial == ``--jobs`` parity
  holds because every step is a pure function of config + seed).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List

from repro.common.config import from_fields
from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.experiments import ExperimentSpec, QaCheck, Variant, register
from repro.loadgen.trace import TraceConfig, build_trace
from repro.serve.bridge import SimBridge
from repro.serve.settings import ServeSettings


@dataclass
class SaturationConfig:
    """One saturation sweep's steps.  The cluster under test is a
    :class:`ServeSettings` and the op mix a :class:`TraceConfig`; each
    step replays that trace at its own offered QPS."""

    qps_start: float = 4_000_000.0
    qps_factor: float = 2.0
    max_steps: int = 8
    #: Achieved/offered ratio below which the step counts as collapsed.
    collapse_ratio: float = 0.85
    ops_per_step: int = 2_000

    def validate(self) -> None:
        if self.qps_start <= 0:
            raise ConfigError(f"qps_start must be > 0: {self.qps_start}")
        if self.qps_factor <= 1.0:
            raise ConfigError(f"qps_factor must be > 1: {self.qps_factor}")
        if self.max_steps < 1:
            raise ConfigError("need at least one sweep step")
        if not 0.0 < self.collapse_ratio <= 1.0:
            raise ConfigError("collapse_ratio must be in (0, 1]")
        if self.ops_per_step < 1:
            raise ConfigError("need at least one op per step")


@dataclass
class SaturationResult:
    config: SaturationConfig
    settings: ServeSettings = field(default_factory=ServeSettings)
    trace: TraceConfig = field(default_factory=TraceConfig)
    steps: List[Dict[str, float]] = field(default_factory=list)

    @property
    def collapsed(self) -> bool:
        if not self.steps:
            return False
        return self.steps[-1]["achieved_ratio"] < self.config.collapse_ratio

    @property
    def peak_qps(self) -> float:
        """Highest achieved QPS across steps — quoted as the cluster's
        measured capacity."""
        if not self.steps:
            return 0.0
        return max(step["achieved_qps"] for step in self.steps)

    @property
    def knee_qps(self) -> float:
        """Last offered QPS the cluster kept up with (0 when even the
        first step collapsed)."""
        held = [
            step["offered_qps"]
            for step in self.steps
            if step["achieved_ratio"] >= self.config.collapse_ratio
        ]
        return max(held) if held else 0.0

    @property
    def undetected_violations(self) -> int:
        return int(
            sum(step["undetected_violations"] for step in self.steps)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": {
                "sweep": asdict(self.config),
                "serve": asdict(self.settings),
                "trace": asdict(self.trace),
            },
            "steps": self.steps,
            "peak_qps": self.peak_qps,
            "knee_qps": self.knee_qps,
            "collapsed": self.collapsed,
            "undetected_violations": self.undetected_violations,
        }


def run_saturation(
    cfg: SaturationConfig, settings: ServeSettings, trace: TraceConfig
) -> SaturationResult:
    """Run the sweep (deterministic: fresh cluster per step).  Step
    ``k`` replays ``trace`` with ``ops_per_step`` ops at its offered
    QPS, on RNG streams derived from ``trace.seed`` and ``k``."""
    cfg.validate()
    if trace.n_objects != settings.n_objects:
        raise ConfigError(
            f"the trace draws from {trace.n_objects} objects, the cluster "
            f"holds {settings.n_objects}"
        )
    result = SaturationResult(config=cfg, settings=settings, trace=trace)
    qps = cfg.qps_start
    for step in range(cfg.max_steps):
        arrivals = build_trace(
            replace(
                trace,
                qps=qps,
                n_ops=cfg.ops_per_step,
                duration_s=0.0,
                seed=derive_seed(trace.seed, "load-sweep", step),
            )
        )
        bridge = SimBridge(settings)
        bridge.warm()
        report = bridge.replay(arrivals)
        row = {"step": float(step), **report.to_row()}
        result.steps.append(row)
        if report.achieved_ratio < cfg.collapse_ratio:
            break
        qps *= cfg.qps_factor
    return result


def write_artifact(result: SaturationResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# registered experiment
# ----------------------------------------------------------------------

SWEEP_HEADERS = (
    "workload",
    "sabre_peak_qps",
    "sabre_knee_qps",
    "percl_peak_qps",
    "percl_knee_qps",
    "sabre_violations",
    "percl_violations",
)


def _sweep_point(ctx) -> Dict[str, float]:
    # Every parameter naming a field of the sweep, the cluster or the
    # op mix overrides it, so the spec states only what it changes; the
    # step size scales with the sweep.
    cfg = from_fields(SaturationConfig, ctx.params)
    cfg.ops_per_step = max(50, int(cfg.ops_per_step * ctx.scale))
    result = run_saturation(
        cfg,
        from_fields(ServeSettings, ctx.params),
        from_fields(TraceConfig, ctx.params),
    )
    v = ctx.variant
    return {
        f"{v}_peak_qps": result.peak_qps,
        f"{v}_knee_qps": result.knee_qps,
        f"{v}_violations": float(result.undetected_violations),
    }


SERVE_LOAD_SWEEP_SPEC = register(
    ExperimentSpec(
        name="serve_load_sweep",
        description=(
            "Open-loop saturation sweep of the serving stack: "
            "offered QPS doubles until achieved/offered collapses"
        ),
        axes={"workload": ("B", "C")},
        variants=(
            Variant("sabre", {"mechanism": "sabre"}),
            Variant("percl", {"mechanism": "percl_versions"}),
        ),
        defaults={
            "qps_start": 8_000_000.0,
            "max_steps": 4,
            "ops_per_step": 600,
            "txn_fraction": 0.05,
            "seed": 23,
        },
        headers=SWEEP_HEADERS,
        point_fn=_sweep_point,
        base_seed=23,
        qa_checks=(
            QaCheck("sabre_peak_qps", agg="min", lo=0.0),
            QaCheck("sabre_violations", agg="max", hi=0.0),
            QaCheck("percl_peak_qps", agg="min", lo=0.0),
        ),
    )
)
