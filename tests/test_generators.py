"""Distributional tests for the workload generators.

The alias-method Zipfian sampler is pinned to the analytic Zipf
probabilities with chi-squared goodness-of-fit over the theta grid,
plus boundary cases for the uniform picker.
"""

import math

import pytest

from repro.workloads.generators import UniformPicker, ZipfianPicker

#: The theta grid the satellite pins (YCSB default in the middle).
THETA_GRID = (0.3, 0.7, 0.99, 1.2)


def chi2_critical(df: int, z: float = 3.09) -> float:
    """Wilson–Hilferty approximation of the chi-squared quantile
    (``z = 3.09`` ~ p = 0.999, so a correct sampler fails one run in a
    thousand; the seeds below are fixed, so the tests are
    deterministic)."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def zipf_probs(n: int, theta: float) -> list:
    weights = [1.0 / math.pow(rank, theta) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def counts_of(picker, draws: int, n: int) -> list:
    counts = [0] * n
    for _ in range(draws):
        counts[picker.pick()] += 1
    return counts


def chi2_stat(observed: list, expected: list) -> float:
    return sum(
        (o - e) ** 2 / e for o, e in zip(observed, expected) if e > 0
    )


class TestAliasZipfianDistribution:
    N = 24
    DRAWS = 30_000

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_alias_matches_analytic_distribution(self, theta):
        """Goodness of fit of the alias sampler against the exact
        Zipf probabilities."""
        picker = ZipfianPicker(range(self.N), seed=42, theta=theta)
        observed = counts_of(picker, self.DRAWS, self.N)
        expected = [p * self.DRAWS for p in zipf_probs(self.N, theta)]
        stat = chi2_stat(observed, expected)
        assert stat < chi2_critical(self.N - 1), (theta, stat)

    def test_alias_table_is_a_valid_partition(self):
        """Structural invariant: every column's kept+donated mass
        reconstructs the exact scaled probabilities."""
        n, theta = 17, 0.99
        picker = ZipfianPicker(range(n), seed=1, theta=theta)
        rebuilt = [0.0] * n
        for i in range(n):
            rebuilt[i] += picker._prob[i]
            rebuilt[picker._alias[i]] += 1.0 - picker._prob[i]
        probs = zipf_probs(n, theta)
        for i in range(n):
            assert rebuilt[i] / n == pytest.approx(probs[i], abs=1e-9)

    def test_one_rng_draw_per_pick(self):
        """The alias sampler must consume exactly one uniform per pick
        (the property that keeps seed-stream budgets unchanged)."""
        picker = ZipfianPicker(range(10), seed=3)
        calls = {"n": 0}
        real = picker._rng.random

        def counting():
            calls["n"] += 1
            return real()

        picker._rng.random = counting
        for _ in range(100):
            picker.pick()
        assert calls["n"] == 100

    def test_single_object(self):
        picker = ZipfianPicker([99], seed=5)
        assert all(picker.pick() == 99 for _ in range(20))

    def test_hot_fraction_agrees_with_sampling(self):
        picker = ZipfianPicker(range(100), seed=9, theta=0.99)
        draws = 20_000
        observed = counts_of(picker, draws, 100)
        head = sum(observed[:10]) / draws
        assert head == pytest.approx(picker.hot_fraction(10), abs=0.03)


class TestUniformPickerBoundaries:
    def test_single_object(self):
        picker = UniformPicker([7], seed=1)
        assert all(picker.pick() == 7 for _ in range(10))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            UniformPicker([], seed=1)

    def test_covers_full_range(self):
        picker = UniformPicker(range(8), seed=2)
        seen = {picker.pick() for _ in range(400)}
        assert seen == set(range(8))

    def test_deterministic_per_label(self):
        a = UniformPicker(range(100), seed=4, label="x")
        b = UniformPicker(range(100), seed=4, label="x")
        c = UniformPicker(range(100), seed=4, label="y")
        stream_a = [a.pick() for _ in range(20)]
        assert [b.pick() for _ in range(20)] == stream_a
        assert [c.pick() for _ in range(20)] != stream_a

    def test_uniformity_chi_squared(self):
        n, draws = 16, 20_000
        picker = UniformPicker(range(n), seed=6)
        observed = counts_of(picker, draws, n)
        expected = [draws / n] * n
        assert chi2_stat(observed, expected) < chi2_critical(n - 1)
