#!/usr/bin/env python3
"""Campaigns: many sweeps as one resumable, QA-scored request.

This file is both a runnable tour and a valid ``repro-campaign``
request (it exposes ``CAMPAIGN``, so ``repro-campaign run
examples/campaign.py`` works too).  The tour:

1. declares a campaign of two stages — a custom latency probe with QA
   bounds attached, plus the paper's fig10 restricted to two object
   sizes — and runs it into a campaign directory;
2. runs the same campaign again to show the resume path: every point
   is served from the journal, nothing re-executes;
3. renders the self-contained HTML report.

Run:  PYTHONPATH=src python examples/campaign.py
"""

import tempfile

from repro.common import scaled_duration
from repro.experiments import (
    CampaignContext,
    CampaignRunner,
    CampaignSpec,
    CampaignStage,
    ExperimentSpec,
    QaCheck,
    Variant,
    register,
)
from repro.experiments.htmlreport import render_campaign
from repro.workloads.microbench import MicrobenchConfig, run_microbench


def _probe_point(ctx):
    result = run_microbench(
        MicrobenchConfig(
            mechanism=ctx.params["mechanism"],
            object_size=ctx.params["object_size"],
            n_objects=64,
            readers=2,
            duration_ns=scaled_duration(40_000.0, ctx.scale),
            warmup_ns=8_000.0,
            seed=7,
        )
    )
    return {ctx.variant: result.mean_op_latency_ns}


register(
    ExperimentSpec(
        name="example_campaign_probe",
        description="SABRes vs per-CL latency probe with QA bounds",
        axes={"object_size": (128, 2048)},
        variants=(
            Variant("sabre_ns", {"mechanism": "sabre"}),
            Variant("percl_ns", {"mechanism": "percl_versions"}),
        ),
        headers=("object_size", "sabre_ns", "percl_ns"),
        point_fn=_probe_point,
        # Baseline sanity carried by the spec itself: latencies must be
        # positive and SABRes must stay under 100us even at tiny scale.
        qa_checks=(
            QaCheck("sabre_ns", agg="min", lo=0.0),
            QaCheck("sabre_ns", agg="max", hi=100_000.0),
        ),
    )
)

CAMPAIGN = CampaignSpec(
    name="example",
    description="campaign tour: custom probe + fig10 subset",
    scale=0.1,
    stages=[
        CampaignStage("example_campaign_probe", name="probe"),
        CampaignStage(
            "fig10",
            name="fig10_small",
            axes={"object_size": (128, 512)},
            # Request-side QA on top of whatever the spec carries.
            qa=(QaCheck("speedup", agg="min", lo=0.9),),
        ),
    ],
)


def main() -> None:
    root = tempfile.mkdtemp(prefix="campaign-example-")

    print(f"--- first run (cold) into {root}")
    result = CampaignRunner(CAMPAIGN, context=CampaignContext(root)).run()
    for stage in result.stages:
        print(f"=== {stage.stage} (QA {stage.verdict}) ===")
        print(stage.result.table())
    print(f"campaign verdict: {result.verdict}\n")

    print("--- second run: everything served from the journal")
    resumed = CampaignRunner(CAMPAIGN, context=CampaignContext(root)).run()
    total = sum(s.result.points_total for s in resumed.stages)
    print(
        f"{resumed.journal_hits}/{total} points from the journal "
        f"({resumed.elapsed_s:.2f}s; kill -9 mid-campaign and it resumes "
        "from the unfinished points the same way)"
    )

    page = render_campaign(CampaignContext(root))
    print(f"report: {page}")


if __name__ == "__main__":
    main()
