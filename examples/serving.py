#!/usr/bin/env python3
"""Serving the simulated cluster like a product.

Walks the serving stack end to end:

1. the **time bridge** — replay a synthesized open-loop arrival trace
   through the simulated cluster in virtual time (deterministic: same
   seed + trace => byte-identical metrics),
2. a **live gateway** — boot ``repro-serve`` in-process on an
   ephemeral port and drive it with the wall-clock open-loop client,
3. a tiny **saturation sweep** — step offered QPS until the
   achieved/offered ratio collapses, locating the cluster's knee.

Run:  PYTHONPATH=src python examples/serving.py
"""

import asyncio

from repro.loadgen.client import run_open_loop
from repro.loadgen.sweep import SaturationConfig, run_saturation
from repro.loadgen.trace import TraceConfig, build_trace
from repro.serve.bridge import SimBridge
from repro.serve.gateway import Gateway
from repro.serve.metrics import parse_samples
from repro.serve.settings import ServeSettings


def demo_virtual_replay() -> None:
    print("--- virtual-time replay (deterministic) ---")
    trace = build_trace(
        TraceConfig(qps=2_000_000.0, n_ops=2000, workload="B",
                    txn_fraction=0.05, seed=7)
    )
    rows = []
    for run in (1, 2):
        bridge = SimBridge(ServeSettings(seed=7))
        bridge.warm()
        report = bridge.replay(trace)
        rows.append(bridge.metrics_snapshot())
        print(
            f"run {run}: {report.n_ok}/{report.n_ops} ok, "
            f"p50 {report.p50_ns:,.0f} ns, p99 {report.p99_ns:,.0f} ns, "
            f"achieved {report.achieved_qps:,.0f} req/s"
        )
    print(f"metrics snapshots byte-identical: {rows[0] == rows[1]}")


def demo_live_gateway() -> None:
    print("\n--- live gateway + wall-clock open-loop client ---")

    async def scenario():
        gw = Gateway(ServeSettings(port=0))
        await gw.start()
        while not gw.bridge.ready:
            await asyncio.sleep(0.01)
        trace = build_trace(
            TraceConfig(qps=2000.0, n_ops=200, workload="B", seed=4)
        )
        report = await run_open_loop(trace, gw.settings.host, gw.port)
        snapshot = gw.bridge.metrics_snapshot()
        await gw.drain()
        return report, parse_samples(snapshot)

    report, samples = asyncio.run(scenario())
    print(
        f"{report.n_ok}/{report.n_ops} ok over {report.duration_s:.2f} s "
        f"wall, p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms"
    )
    torn = {
        k: v for k, v in samples.items()
        if k.startswith("repro_shard_undetected_violations")
    }
    print(f"undetected torn reads across shards: {sum(torn.values()):.0f}")


def demo_saturation_sweep() -> None:
    print("\n--- saturation sweep (virtual time, tiny) ---")
    result = run_saturation(
        SaturationConfig(
            qps_start=8_000_000.0, qps_factor=4.0, max_steps=3, ops_per_step=400
        ),
        ServeSettings(seed=6),
        TraceConfig(workload="C", seed=6),
    )
    for step in result.steps:
        print(
            f"offered {step['offered_qps']:>12,.0f} req/s -> achieved "
            f"{step['achieved_qps']:>12,.0f} (ratio {step['achieved_ratio']:.2f})"
        )
    print(
        f"peak {result.peak_qps:,.0f} req/s, knee {result.knee_qps:,.0f} "
        f"offered ({'collapsed' if result.collapsed else 'never collapsed'})"
    )


if __name__ == "__main__":
    demo_virtual_replay()
    demo_live_gateway()
    demo_saturation_sweep()
