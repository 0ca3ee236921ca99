"""Figure 7a: microbenchmark end-to-end transfer latency.

Paper claims: (i) single-block transfers are identical across remote
reads and both SABRe variants; (ii) the no-speculation SABRe pays the
serialized version read (up to ~40 % for two-block objects); (iii)
LightSABRes match remote reads, with a small single-R2P2-pinning gap
above 2 KB.
"""

from conftest import show

from repro.experiments import registry, run_sweep


def test_fig7a_latency(scale):
    result = run_sweep(registry.get("fig7a"), scale=scale)
    rows = result.rows
    show("Fig. 7a: one-sided operation latency (ns)", result.table())
    by_size = {r["object_size"]: r for r in rows}

    single = by_size[64]
    assert abs(single["sabre_ns"] - single["remote_read_ns"]) < 0.1 * single["remote_read_ns"]

    two_block = by_size[128]
    nospec_penalty = two_block["sabre_no_spec_ns"] / two_block["sabre_ns"] - 1.0
    assert 0.2 <= nospec_penalty <= 0.6  # paper: up to ~40 %

    big = by_size[8192]
    pinning_gap = big["sabre_ns"] / big["remote_read_ns"] - 1.0
    assert 0.0 <= pinning_gap <= 0.2  # paper: small gap from pinning
