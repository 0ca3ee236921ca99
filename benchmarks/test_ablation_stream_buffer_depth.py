"""Ablation (DG1, §4.1): stream-buffer depth vs single-SABRe latency.

The depth bounds how many loads can be in flight during the window of
vulnerability.  Little's law at the 20 GBps per-R2P2 target and ~90 ns
memory latency yields ~28 outstanding blocks — hence the paper's depth
of 32.  Shallow buffers stall the unroll and inflate latency of large
SABRes; depth beyond the bandwidth-delay product buys nothing.

Runs the registered ``ablation_stream_buffer_depth`` experiment spec.
"""

from conftest import show

from repro.experiments import registry, run_sweep
from repro.experiments.runner import format_table


def test_stream_buffer_depth_sweep(scale):
    rows = run_sweep(registry.get("ablation_stream_buffer_depth"), scale=scale).rows
    show(
        "Ablation: stream buffer depth vs 8 KB SABRe latency",
        format_table(("depth", "sabre_8kb_latency_ns"), rows),
    )
    lat = {r["depth"]: r["sabre_8kb_latency_ns"] for r in rows}
    # Starving the window hurts; the paper's depth is on the plateau.
    assert lat[2] > 1.08 * lat[32]
    assert lat[8] > lat[32]
    # Beyond the bandwidth-delay product there is nothing left to win.
    assert abs(lat[128] - lat[32]) < 0.05 * lat[32]
