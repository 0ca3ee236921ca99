#!/usr/bin/env python3
"""Golden artifacts for the KV service workloads and the paper figures.

Every service and figure spec's ``rows.json``, every fuzz fingerprint
and the ``SimBridge.replay`` metrics snapshot are pure functions of
their seed, so a refactor of the client loops, configs, pickers or the
event engine is correct exactly when these hashes do not move.
``--write`` records them (run it on the commit you trust), ``--check``
recomputes and compares.

Beside each spec's rows hash sits ``events/<spec>/<seed>``: the number
of callbacks the run scheduled, summed over every ``Simulator`` it
built.  It is exact for a seed, so it is compared at 0 % tolerance — a
change that makes an operation cost more callbacks fails by name while
the rows stay identical, and no wall clock is consulted.  The replay
snapshot is split the same way: ``replay`` hashes it without its two
``repro_sim_events_*`` series and ``events/replay`` holds the scheduled
count, so a change that only makes operations cheaper moves
``events/*`` and nothing else.

Usage::

    python tools/golden.py --check              # seed 1 (tier-1 / CI smoke)
    python tools/golden.py --check --all-seeds  # seeds 1, 7, 23
    python tools/golden.py --write              # all seeds, rewrite the file
    python tools/golden.py --write --only-events
        # a perf PR's regeneration: recompute everything, rewrite the
        # events/* keys, refuse (exit 1, file untouched) if any other
        # value differs from the file

The file also stores the hash of a fixed ``math.pow``/``math.log``/
``random.Random(1)`` vector: the Zipfian alias table and the arrival
traces are built from exactly those calls, so on a libm that rounds
them differently every hash moves for a reason that is not a code
change.  ``--check`` then exits 3 (and the test skips, loudly) instead
of reporting drift.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import random
import sys
from typing import Callable, Dict, Iterator, Sequence, Tuple, Union

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden", "service_sha256.json")

SEEDS = (1, 7, 23)
SCALE = 0.02

#: The registered specs that run the closed-loop client driver, the
#: deployment configs or the picker factory, then the figure specs.
SPECS = (
    "ycsb_latency",
    "ycsb_shard_scaling",
    "txn_abort_rate",
    "txn_shard_scaling",
    "failover_availability",
    "failover_atomicity",
    "gray_availability",
    "partition_availability",
    "elastic_scaling",
    "hotkey_rebalance",
    "serve_load_sweep",
    "ablation_skewed_access",
    # The paper's figures (what bench/ runs as ``paper_figs``) and the
    # ablations that stress the per-block chain: the multi-block,
    # deep-pending-set regime no service spec reaches.  With fig7b,
    # ``ablation_stream_buffer_count`` is the asynchronous
    # (``async_window > 1``) microbenchmark.
    "fig1",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10",
    "ablation_stream_buffer_depth",
    "ablation_stream_buffer_count",
    "ablation_r2p2_distribution",
    # The remaining simulator-running ablations: destination locking,
    # software retry policy, the software atomicity mechanisms and the
    # Table 1 cells (source locking / source OCC / SABRes).
    "ablation_locking_vs_occ",
    "ablation_retry_policy",
    "ablation_software_mechanisms",
    "ablation_source_locking",
)

#: Fuzz lane -> ``fuzz_round`` keyword arguments.
FUZZ_LANES: Dict[str, Dict[str, float]] = {
    "crash": {"crash_cycles": 3, "duration_ns": 45_000.0},
    "gray": {"gray_windows": 2},
    "partition": {"partition_windows": 2},
    "skew": {"crash_cycles": 1, "gray_windows": 1, "skew_max_ns": 1_000.0},
    "reshard": {"reshard_adds": 2, "gray_windows": 1},
    # Every fault family at once: windows open and close while
    # multi-block SABRes stream and crashes cancel them mid-flight.
    "faultmix": {
        "crash_cycles": 2,
        "gray_windows": 2,
        "partition_windows": 2,
        "skew_max_ns": 1_000.0,
        "duration_ns": 40_000.0,
    },
}


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def canary_hash() -> str:
    """Hash of the libm / Mersenne-Twister calls the hashes depend on."""
    rng = random.Random(1)
    vector = [repr(math.pow(rank, 0.99)) for rank in range(1, 65)]
    vector += [repr(math.log(1.0 + rank / 7.0)) for rank in range(1, 65)]
    vector += [repr(rng.random()) for _ in range(16)]
    vector += [repr(rng.expovariate(0.004)) for _ in range(16)]
    return _sha(vector)


def spec_run(name: str, seed: int) -> Tuple[str, int]:
    """One sweep of a spec: its rows hash and the callbacks it
    scheduled over every ``Simulator`` it built."""
    from repro.experiments import registry, run_sweep
    from repro.sim import engine

    sims: list = []
    engine.TRACKED_SIMULATORS = sims
    try:
        result = run_sweep(
            registry.get(name),
            scale=SCALE,
            overrides={"seed": seed},
            base_seed=seed,
        )
    finally:
        engine.TRACKED_SIMULATORS = None
    return (
        _sha(result.rows_json_dict()),
        sum(sim.events_scheduled for sim in sims),
    )


#: ``spec/*`` and ``events/*`` of one ``(spec, seed)`` come from one run.
_spec_run_once = functools.lru_cache(maxsize=None)(spec_run)


def fuzz_hash(lane: str, seed: int) -> str:
    from repro.workloads.fuzz import fuzz_round

    outcome = fuzz_round("sabre", 4, seed=seed, **FUZZ_LANES[lane])
    return _sha(outcome.fingerprint)


#: The snapshot's event counters: kept out of the ``replay`` hash,
#: recorded as ``events/replay``.
_REPLAY_EVENT_SERIES = (
    "repro_sim_events_fired_total",
    "repro_sim_events_scheduled_total",
)


@functools.lru_cache(maxsize=None)
def replay_run() -> Tuple[str, int]:
    """The replay snapshot's hash without its event-counter series,
    and the callbacks the replay scheduled."""
    from repro.loadgen.trace import TraceConfig, build_trace
    from repro.serve.bridge import SimBridge
    from repro.serve.settings import ServeSettings

    bridge = SimBridge(ServeSettings(seed=7))
    bridge.warm()
    bridge.replay(
        build_trace(
            TraceConfig(
                qps=8_000_000.0,
                n_ops=400,
                workload="A",
                txn_fraction=0.1,
                seed=7,
            )
        )
    )
    kept = [
        line
        for line in bridge.metrics_snapshot().splitlines()
        if not any(series in line for series in _REPLAY_EVENT_SERIES)
    ]
    return _sha("\n".join(kept)), bridge.sim.events_scheduled


def entries(
    seeds: Sequence[int],
) -> Iterator[Tuple[str, Callable[[], Union[str, int]]]]:
    """``(key, compute)`` for every golden value over ``seeds`` (the
    seed-independent replay snapshot rides with the first seed)."""
    for name in SPECS:
        for seed in seeds:
            for part, kind in enumerate(("spec", "events")):
                yield f"{kind}/{name}/{seed}", (
                    lambda n=name, s=seed, p=part: _spec_run_once(n, s)[p]
                )
    for lane in FUZZ_LANES:
        for seed in seeds:
            yield f"fuzz/{lane}/{seed}", lambda l=lane, s=seed: fuzz_hash(l, s)
    if SEEDS[0] in seeds:
        yield "replay", lambda: replay_run()[0]
        yield "events/replay", lambda: replay_run()[1]


def load_golden() -> Dict[str, Union[str, int]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    parser.add_argument(
        "--only-events",
        action="store_true",
        help="with --write: refuse unless only events/* values moved",
    )
    parser.add_argument(
        "--all-seeds",
        action="store_true",
        help=f"check seeds {SEEDS}, not only seed {SEEDS[0]}",
    )
    args = parser.parse_args(argv)
    if args.only_events and not args.write:
        parser.error("--only-events goes with --write")

    if args.write:
        golden = {"canary": canary_hash()}
        for key, compute in entries(SEEDS):
            golden[key] = compute()
            print(f"{key}  {str(golden[key])[:16]}")
        if args.only_events:
            on_file = load_golden()
            moved = sorted(
                key
                for key in golden.keys() | on_file.keys()
                if golden.get(key) != on_file.get(key)
            )
            refused = [key for key in moved if not key.startswith("events/")]
            if refused:
                for key in refused:
                    print(f"DRIFT  {key}", file=sys.stderr)
                print(
                    f"golden: {len(refused)} non-event value(s) differ from "
                    "the file; nothing written",
                    file=sys.stderr,
                )
                return 1
            for key in moved:
                print(f"moved  {key}  {on_file.get(key)} -> {golden.get(key)}")
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(golden)} values to {GOLDEN_PATH}")
        return 0

    golden = load_golden()
    if golden["canary"] != canary_hash():
        print(
            "golden: SKIPPED — this platform's math.pow/math.log/random "
            "differ from the one the hashes were written on",
            file=sys.stderr,
        )
        return 3
    drifted = []
    for key, compute in entries(SEEDS if args.all_seeds else SEEDS[:1]):
        got = compute()
        if got == golden[key]:
            print(f"ok     {key}")
        else:
            print(f"DRIFT  {key}  {str(golden[key])[:16]} -> {str(got)[:16]}")
            drifted.append(key)
    if drifted:
        print(f"golden: {len(drifted)} value(s) drifted", file=sys.stderr)
        return 1
    print("golden: all values match")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
