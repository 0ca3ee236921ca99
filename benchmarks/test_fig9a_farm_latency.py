"""Figure 9a: FaRM KV store end-to-end latency breakdown.

Paper claims: LightSABRes cut atomic remote object read latency by
~35 % (128 B) to ~52 % (8 KB); the stripping component disappears, the
framework component shrinks (zero-copy, smaller instruction
footprint), the application component grows (LLC- vs L1-resident).
"""

from conftest import show

from repro.experiments import registry, run_sweep


def test_fig9a_farm_latency(scale):
    result = run_sweep(registry.get("fig9a"), scale=scale)
    rows = result.rows
    show("Fig. 9a: FaRM lookup latency breakdown (ns)", result.table())
    by = {(r["object_size"], r["build"]): r for r in rows}

    for size in (128, 8192):
        sabre, percl = by[(size, "sabre")], by[(size, "percl")]
        assert sabre["stripping_ns"] == 0.0
        assert sabre["framework_ns"] < percl["framework_ns"]
        assert sabre["application_ns"] > percl["application_ns"]

    small = by[(128, "percl")]["total_ns"] / by[(128, "sabre")]["total_ns"] - 1
    large = by[(8192, "percl")]["total_ns"] / by[(8192, "sabre")]["total_ns"] - 1
    assert 0.2 <= small <= 0.5  # paper: 35 %
    assert 0.35 <= large <= 0.7  # paper: 52 %
    assert large > small
