"""Declarative experiment framework: specs, sweeps, campaigns.

Quickstart — one call runs one sweep (``jobs > 1`` is a process pool;
``context=CampaignContext(dir)`` journals every point so a re-run
serves it from disk, ``result.points_cached`` saying how many)::

    from repro.experiments import registry, run_sweep

    result = run_sweep(registry.get("fig7a"), scale=0.25, jobs=4)
    print(result.table())

Campaigns (resumable, multi-host, self-reporting)::

    from repro.experiments import CampaignSpec, CampaignStage, CampaignRunner
    from repro.experiments.context import CampaignContext

    campaign = CampaignSpec(
        name="nightly",
        scale=0.2,
        stages=[CampaignStage("fig7a"), CampaignStage("ycsb_latency")],
    )
    CampaignRunner(campaign, context=CampaignContext("runs/nightly")).run()
"""

from repro.experiments.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignStage,
    load_campaign,
)
from repro.experiments.context import CampaignContext, point_key
from repro.experiments.executors import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    SubprocessExecutor,
    execute_point,
    make_executor,
)
from repro.experiments.qa import QaCheck, QaReport
from repro.experiments.registry import get, load_builtin, names, register
from repro.experiments.runner import SweepResult, merge_rows, run_sweep
from repro.experiments.spec import (
    ExperimentSpec,
    Point,
    PointContext,
    Variant,
)

__all__ = [
    "CampaignContext",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStage",
    "Executor",
    "ExperimentSpec",
    "Point",
    "PointContext",
    "PoolExecutor",
    "QaCheck",
    "QaReport",
    "SerialExecutor",
    "SubprocessExecutor",
    "SweepResult",
    "Variant",
    "execute_point",
    "get",
    "load_builtin",
    "load_campaign",
    "make_executor",
    "merge_rows",
    "names",
    "point_key",
    "register",
    "run_sweep",
]
