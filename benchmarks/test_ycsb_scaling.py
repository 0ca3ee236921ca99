"""YCSB-A shard scaling on the rack-scale service.

Not a paper figure — the scale-out extension of §7.3's FaRM scenario:
as shards (and client nodes) grow 1 -> 8, read throughput under the
SABRe mechanism should grow with the rack while the ground-truth
torn-read audit stays clean despite the 50 % write mix.
"""

from conftest import show

from repro.experiments import run_sweep
from repro.workloads.ycsb import YCSB_SHARD_SCALING_SPEC


def run_scaling(scale):
    return run_sweep(YCSB_SHARD_SCALING_SPEC, scale=scale)


def test_ycsb_shard_scaling(scale):
    result = run_scaling(scale)
    show("YCSB-A shard scaling (SABRe reads)", result.table())
    rows = {row["shards"]: row for row in result.rows}
    for row in result.rows:
        assert row["undetected_violations"] == 0
    # Throughput grows with the rack (loose bound: tiny windows are
    # noisy, but 8 shards must comfortably beat 1).
    assert rows[8]["read_gbps"] > 2.0 * rows[1]["read_gbps"]
    assert rows[2]["read_gbps"] > rows[1]["read_gbps"]
