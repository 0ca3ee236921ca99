"""Unit tests for the 2D mesh model."""

import pytest

from repro.common.config import NocConfig
from repro.common.errors import ConfigError
from repro.noc.mesh import Mesh


@pytest.fixture
def mesh():
    return Mesh(NocConfig())


def test_coord_layout(mesh):
    """Row-major tiles: 3 is the top row's far end, 4 starts row 1."""
    assert mesh.hops(0, 3) == 3
    assert mesh.hops(0, 4) == 1
    assert mesh.hops(3, 4) == 4
    assert mesh.hops(0, 15) == 6


def test_coord_out_of_range(mesh):
    with pytest.raises(ConfigError):
        mesh.hops(0, 16)


def test_hops_manhattan(mesh):
    assert mesh.hops(0, 0) == 0
    assert mesh.hops(0, 15) == 6
    assert mesh.hops(5, 6) == 1


def test_hop_latency_matches_table2(mesh):
    # 3 cycles/hop at 2 GHz = 1.5 ns/hop.
    assert mesh.latency_ns(0, 1) == pytest.approx(1.5)
    assert mesh.latency_ns(0, 15) == pytest.approx(9.0)


def test_payload_serialization_adds_flits(mesh):
    # 64 B on 16 B links: 4 flits -> 3 extra link cycles at 2 GHz.
    base = mesh.latency_ns(0, 1)
    with_payload = mesh.latency_ns(0, 1, payload_bytes=64)
    assert with_payload == pytest.approx(base + 3 / 2.0)


def test_small_payload_fits_one_flit(mesh):
    assert mesh.latency_ns(0, 1, payload_bytes=16) == mesh.latency_ns(0, 1)


def test_llc_bank_interleaving(mesh):
    banks = {mesh.llc_bank_tile(64 * i) for i in range(16)}
    assert banks == set(range(16))
    assert mesh.llc_bank_tile(64) == mesh.llc_bank_tile(64 + 63)


def test_mc_tiles_on_edges(mesh):
    for ch in range(4):
        assert mesh.mc_tile(ch) % 4 in (0, 3)


def test_rmc_tiles_on_top_row(mesh):
    for backend in range(4):
        assert mesh.rmc_tile(backend) < 4
    assert len({mesh.rmc_tile(b) for b in range(4)}) == 4


def test_mean_hops_symmetricish(mesh):
    # Mean distance to a corner exceeds mean distance to the center.
    def mean_hops_to(dst):
        return sum(mesh.hops(t, dst) for t in range(mesh.tiles)) / mesh.tiles

    assert mean_hops_to(0) > mean_hops_to(5)
