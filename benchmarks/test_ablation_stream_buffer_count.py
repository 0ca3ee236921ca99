"""Ablation (DG2, §4.1): stream-buffer count vs small-SABRe concurrency.

The number of stream buffers caps concurrent SABRes per R2P2.  With
many threads issuing small SABRes, too few buffers cause ATT
backpressure and throughput collapse; the paper provisions 16.

Runs the registered ``ablation_stream_buffer_count`` experiment spec.
"""

from conftest import show

from repro.experiments import registry, run_sweep
from repro.experiments.runner import format_table


def test_stream_buffer_count_sweep(scale):
    rows = run_sweep(registry.get("ablation_stream_buffer_count"), scale=scale).rows
    show(
        "Ablation: stream buffer count vs 128 B SABRe throughput",
        format_table(
            ("stream_buffers", "small_sabre_gbps", "att_backpressure_events"),
            rows,
        ),
    )
    by_count = {r["stream_buffers"]: r for r in rows}
    assert (
        by_count[16]["small_sabre_gbps"] > 1.2 * by_count[1]["small_sabre_gbps"]
    )
    assert by_count[1]["att_backpressure_events"] > 0
