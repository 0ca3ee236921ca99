"""``repro-campaign``: run, resume, inspect, and report campaigns.

Usage::

    repro-campaign run nightly.json --dir runs/nightly --jobs 4
    repro-campaign run nightly.json --workers 4   # subprocess workers
    repro-campaign resume runs/nightly          # continue after a kill
    repro-campaign status runs/nightly          # points done per stage
    repro-campaign report runs/nightly          # render the HTML weblog

The request is a JSON file (or a Python file exposing ``CAMPAIGN``)
naming the stages; see ``examples/campaign.py``.  ``run`` persists the
request inside the campaign directory, so ``resume``/``status``/
``report`` need only the directory.  The executor follows the counts:
``--workers N`` fans points out to worker processes, ``--jobs N > 1``
runs a pool on this host, and otherwise the run is serial; giving both
is an error (exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional, Sequence

from repro.common.errors import ConfigError
from repro.experiments.campaign import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    campaign_status,
    load_campaign,
    load_campaign_dir,
)
from repro.experiments.context import CampaignContext
from repro.experiments.executors import make_executor


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="run points in a pool of N processes on this host",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan points out to N worker subprocesses (see --worker-command)",
    )
    parser.add_argument(
        "--worker-command",
        default=None,
        metavar="CMD",
        help="worker launch template for --workers; {python} "
        "expands to this interpreter (default: '{python} -m "
        "repro.experiments.worker'; prefix with 'ssh host' for a "
        "remote worker)",
    )
    parser.add_argument(
        "--qa-gate",
        action="store_true",
        help="exit 3 when any stage's QA verdict is FAIL (warns when no "
        "stage carries a check)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Resumable multi-experiment campaigns over the "
        "declarative sweep framework.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a campaign request")
    run_p.add_argument("request", help="campaign request (.json or .py)")
    run_p.add_argument(
        "--dir",
        dest="campaign_dir",
        default=None,
        help="campaign directory (journal + artifacts + report); "
        "default: campaigns/<name>",
    )
    _add_executor_args(run_p)

    res_p = sub.add_parser("resume", help="continue an interrupted campaign")
    res_p.add_argument("campaign_dir", help="existing campaign directory")
    _add_executor_args(res_p)

    st_p = sub.add_parser("status", help="show per-stage completion")
    st_p.add_argument("campaign_dir", help="existing campaign directory")

    rep_p = sub.add_parser("report", help="render the HTML report")
    rep_p.add_argument("campaign_dir", help="existing campaign directory")
    return parser


def _execute(
    campaign: CampaignSpec,
    open_context: Callable[[], CampaignContext],
    args: argparse.Namespace,
) -> int:
    # The counts are checked before a campaign directory is created.
    executor = make_executor(
        jobs=args.jobs,
        workers=args.workers,
        command=args.worker_command,
    )
    result = CampaignRunner(campaign, executor=executor, context=open_context()).run()
    _print_result(result)
    if args.qa_gate and result.verdict == "fail":
        return 3
    if args.qa_gate and result.verdict == "none":
        # A gate that checked nothing must not read as a gate that
        # passed; the exit code stays 0 so no campaign starts failing.
        print("warning: --qa-gate with no QA checks evaluated", file=sys.stderr)
    return 0


def _print_result(result: CampaignResult) -> None:
    for stage in result.stages:
        hits = (
            f", {stage.journal_hits}/{stage.result.points_total} from journal"
            if stage.journal_hits
            else ""
        )
        print(
            f"=== {stage.stage} "
            f"({stage.result.elapsed_s:.1f}s, peak RSS "
            f"{stage.peak_rss_mb:.0f} MiB{hits}, QA {stage.verdict}) ==="
        )
        print(stage.result.table())
        for outcome in stage.qa.outcomes:
            mark = "ok " if outcome.passed else "FAIL"
            shown = "n/a" if outcome.observed is None else f"{outcome.observed:g}"
            extra = f" ({outcome.reason})" if outcome.reason else ""
            print(f"  QA {mark} {outcome.check.describe()}: {shown}{extra}")
        print()
    print(
        f"campaign {result.campaign}: {len(result.stages)} stages, "
        f"verdict {result.verdict.upper()}, "
        f"{result.journal_hits} points served from journal, "
        f"{result.elapsed_s:.1f}s"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            campaign = load_campaign(args.request)
            root = args.campaign_dir or os.path.join("campaigns", campaign.name)
            return _execute(campaign, lambda: CampaignContext(root), args)

        if args.command == "resume":
            campaign, context = load_campaign_dir(args.campaign_dir)
            return _execute(campaign, lambda: context, args)

        if args.command == "status":
            campaign, context = load_campaign_dir(args.campaign_dir)
            total_done = total = 0
            for stage, done, count in campaign_status(campaign, context):
                total_done += done
                total += count
                print(f"{stage:<28} {done:>5}/{count} points")
            pct = 100.0 * total_done / total if total else 0.0
            print(f"{'total':<28} {total_done:>5}/{total} points ({pct:.0f}%)")
            if context.journal_lines_skipped:
                print(
                    f"note: {context.journal_lines_skipped} corrupt journal "
                    "line(s) skipped (will recompute)"
                )
            return 0

        if args.command == "report":
            from repro.harness.htmlreport import render_campaign

            _, context = load_campaign_dir(args.campaign_dir)
            path = render_campaign(context)
            print(f"wrote {path}")
            return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
