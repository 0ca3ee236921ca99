"""Command-line entry point: run any registered experiment — every
paper table/figure plus the ablation sweeps.

Usage::

    repro-harness list                       # registered experiments
    repro-harness fig7a                      # full-size serial run
    repro-harness fig8 --scale 0.3 --jobs 8  # faster, parallel sweep
    repro-harness all --scale 0.2 --json-out results.json
    repro-harness fig7b --campaign-dir .sweep-cache  # reuse finished points
    repro-harness fig7a --axes object_size=64,512  # axis subset
    repro-harness fig10 --overrides seed=7 --base-seed 3
    repro-harness all --campaign-dir runs/all      # journaled + resumable

``all`` runs through the campaign layer (one stage per registered
experiment), so ``--campaign-dir`` makes it resumable after a crash
and ``repro-campaign report`` can render the results.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.experiments import registry
from repro.experiments.campaign import CampaignRunner, CampaignSpec, CampaignStage
from repro.experiments.context import CampaignContext, atomic_write_json
from repro.experiments.executors import make_executor


def _parse_value(text: str) -> Any:
    """``64`` -> int, ``0.5`` -> float, ``'a'``/bare words -> str."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def parse_axes(entries: Sequence[str]) -> Optional[Dict[str, Tuple[Any, ...]]]:
    """Parse repeated ``--axes name=v1,v2,...`` into an axes mapping."""
    if not entries:
        return None
    axes: Dict[str, Tuple[Any, ...]] = {}
    for entry in entries:
        name, sep, raw = entry.partition("=")
        if not sep or not name or not raw:
            raise ConfigError(
                f"--axes expects name=v1,v2,... got {entry!r}"
            )
        axes[name] = tuple(_parse_value(v) for v in raw.split(","))
    return axes


def parse_overrides(entries: Sequence[str]) -> Optional[Dict[str, Any]]:
    """Parse repeated ``--overrides key=value`` into an override dict."""
    if not entries:
        return None
    overrides: Dict[str, Any] = {}
    for entry in entries:
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise ConfigError(f"--overrides expects key=value, got {entry!r}")
        overrides[key] = _parse_value(raw)
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Run the SABRes paper's tables, figures, and ablation "
        "experiments through the declarative sweep framework.",
    )
    choices = ["list", "all", *registry.names()]
    parser.add_argument(
        "experiment",
        choices=choices,
        help="experiment name, 'all' to run everything, or 'list'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="measurement-window scale factor (smaller = faster, noisier)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the parameter sweep (default: 1)",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="also write results as a JSON artifact",
    )
    parser.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="override the spec's seed root for per-point seeding; it "
        "moves journal keys and any user point function that reads "
        "ctx.seed, but no built-in spec's rows (--overrides seed=N does)",
    )
    parser.add_argument(
        "--axes",
        action="append",
        default=[],
        metavar="NAME=V1,V2",
        help="restrict an axis to the given values (repeatable)",
    )
    parser.add_argument(
        "--overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec parameter (repeatable; values parsed as "
        "Python literals, falling back to strings)",
    )
    parser.add_argument(
        "--campaign-dir",
        metavar="DIR",
        default=None,
        help="journal completed points under a campaign directory, "
        "making the run crash-resumable ('all' resumes stage by stage; "
        "render with repro-campaign report)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.experiment == "list":
        descriptions = registry.descriptions()
        width = max(len(name) for name in descriptions)
        for name, description in descriptions.items():
            print(f"{name:<{width}}  {description}")
        return 0

    try:
        axes = parse_axes(args.axes)
        overrides = parse_overrides(args.overrides)
        names = (
            list(registry.names()) if args.experiment == "all" else [args.experiment]
        )
        # Single experiments and 'all' alike run as a campaign: one
        # stage per spec, the chosen context deciding persistence.
        campaign = CampaignSpec(
            name="all" if args.experiment == "all" else args.experiment,
            scale=args.scale,
            stages=[
                CampaignStage(
                    experiment=name,
                    axes=axes,
                    overrides=overrides,
                    base_seed=args.base_seed,
                )
                for name in names
            ],
        )
        runner = CampaignRunner(
            campaign,
            executor=make_executor(jobs=args.jobs),
            context=CampaignContext(args.campaign_dir) if args.campaign_dir else None,
        )
        artifacts = {}
        for stage_result in runner.iter_run():
            result = stage_result.result
            cached = (
                f", {result.points_cached}/{result.points_total} points cached"
                if args.campaign_dir
                else ""
            )
            print(f"=== {stage_result.stage} ({result.elapsed_s:.1f}s{cached}) ===")
            print(result.table())
            print()
            artifacts[stage_result.stage] = result.to_json_dict()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json_out:
        payload = artifacts[names[0]] if len(names) == 1 else artifacts
        atomic_write_json(args.json_out, payload)
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
