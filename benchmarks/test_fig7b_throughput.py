"""Figure 7b: peak throughput, 16 threads issuing async operations.

Paper claims: remote reads and LightSABRes have identical throughput
curves — SABRe state at the R2P2s does not cost bandwidth — and both
reach the fabric-limited peak for large objects.
"""

from conftest import show

from repro.experiments import registry, run_sweep


def test_fig7b_throughput(scale):
    result = run_sweep(registry.get("fig7b"), scale=scale)
    rows = result.rows
    show("Fig. 7b: async throughput (GB/s)", result.table())
    for row in rows:
        assert row["sabre_gbps"] >= 0.8 * row["remote_read_gbps"]
        assert row["sabre_gbps"] <= 1.2 * row["remote_read_gbps"]
    gbps = [r["sabre_gbps"] for r in rows]
    assert gbps[-1] > gbps[0]  # grows with object size
    assert gbps[-1] > 40.0  # approaches the fabric limit
    assert gbps[-1] <= 100.0
