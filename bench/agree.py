"""A/A agreement: the whole benchmark twice on the same tree.

    python3 bench/agree.py [--seeds 10] [--seconds N] [--workloads a,b] [--out FILE]

Two passes, the second with the workloads in reverse order.  Each pass
runs every workload untraced once per seed (seeds 1..N) and traced once
(seed 1).  Per end-to-end metric it prints both medians, the relative
gap in the worsening direction, each pass's spread (interquartile
range over its median, ``statistics.quantiles(values, n=4)``) and the
bound; per exact metric it compares the two passes value by value.

Exit 1 when a median worsens by more than its bound, a spread exceeds
its bound (``setup_s`` excepted: its spread is reported, not gated), or
any exact metric — every ``sim_*``, ``sim.events_per_op``,
``*.calls_per_op``, ``paper_band_misses``, ``failed_op_share`` —
differs at all between the passes for the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_PER_LAYER = ("sim.events_per_op", "paper_band_misses", "failed_op_share")


def is_exact(name: str) -> bool:
    return (
        name.startswith("sim_")
        or name.endswith(".calls_per_op")
        or name in EXACT_PER_LAYER
    )


def run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, float]:
    """One benchmark run; ``{}`` (and a complaint) if it failed."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    lines = done.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if done.returncode != 0 or not result.get("correct"):
        print(f"FAILED RUN: {workload} seed {seed} trace {trace}: "
              f"exit {done.returncode}", flush=True)
        return {}
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seeds = list(range(1, args.seeds + 1))

    passes: List[Dict[str, Any]] = []
    for order in (names, names[::-1]):
        untraced: Dict[str, List[Dict[str, float]]] = {}
        traced: Dict[str, Dict[str, float]] = {}
        for workload in order:
            untraced[workload] = []
            for seed in seeds:
                untraced[workload].append(run(workload, seed, seconds, 0))
                print(f"  pass {len(passes) + 1} {workload} seed {seed} done",
                      file=sys.stderr, flush=True)
            traced[workload] = run(workload, seeds[0], seconds, 1)
        passes.append({"untraced": untraced, "traced": traced})

    bad = sum(
        not result
        for p in passes
        for results in (*p["untraced"].values(), p["traced"].values())
        for result in results
    )
    report: Dict[str, Any] = {}
    header = (f"{'workload':<14} {'metric':<18} {'median A':>12} {'median B':>12} "
              f"{'gap':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}")
    print(header)
    for workload in names:
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in passes[0]["untraced"][workload] if r]
            b = [r[name] for r in passes[1]["untraced"][workload] if r]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                gap = -gap
            spreads = (spread(a), spread(b))
            verdict = ""
            if gap > bound or (name != "setup_s" and max(spreads) > bound):
                verdict = "  DISAGREE"
                bad += 1
            if is_exact(name) and a != b:
                verdict += "  NOT EXACT"
                bad += 1
            print(f"{workload:<14} {name:<18} {med_a:>12.6g} {med_b:>12.6g} "
                  f"{gap:>+8.2%} {spreads[0]:>9.2%} {spreads[1]:>9.2%} "
                  f"{bound:>6.2f}{verdict}")
            report[workload][name] = {
                "a": a, "b": b, "gap": gap, "spread_a": spreads[0],
                "spread_b": spreads[1], "bound": bound,
            }
        ta, tb = passes[0]["traced"][workload], passes[1]["traced"][workload]
        differing = [n for n in ta if is_exact(n) and ta[n] != tb.get(n)]
        exact = sum(1 for n in ta if is_exact(n))
        print(f"{workload:<14} {exact} exact per-layer metrics: "
              f"{'identical' if not differing else 'DIFFER: ' + ', '.join(differing)}")
        bad += len(differing)
        report[workload]["per_layer"] = {"a": ta, "b": tb}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print("agree" if not bad else f"{bad} disagreements")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
