"""Unit tests for measurement utilities."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim.stats import Breakdown, Counter, Samples, ThroughputMeter


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("aborts")
        c.add("aborts", 2)
        assert c.get("aborts") == 3
        assert c.get("missing") == 0

    def test_as_dict_copies(self):
        c = Counter()
        c.add("x")
        d = c.as_dict()
        d["x"] = 100
        assert c.get("x") == 1


class TestSamples:
    def test_empty_stats_are_nan(self):
        s = Samples()
        assert math.isnan(s.mean)
        assert math.isnan(s.p50)
        assert math.isnan(s.max)

    def test_mean_and_total(self):
        s = Samples()
        s.extend([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.total == pytest.approx(6.0)
        assert len(s) == 3

    def test_percentiles(self):
        s = Samples()
        s.extend(range(101))
        assert s.p50 == pytest.approx(50.0)
        assert s.percentile(95) == pytest.approx(95.0)
        assert s.percentile(0) == 0.0
        assert s.percentile(100) == 100.0

    def test_percentile_bounds(self):
        s = Samples()
        s.add(1.0)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_min_max(self):
        s = Samples()
        s.extend([5.0, -2.0, 9.0])
        assert s.min == -2.0
        assert s.max == 9.0

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1))
    @example([5e-324, 5e-324])
    def test_percentile_within_range(self, values):
        s = Samples()
        s.extend(values)
        assert min(values) <= s.p50 <= max(values)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_percentile_monotone(self, values, p1, p2):
        s = Samples()
        s.extend(values)
        lo, hi = sorted((p1, p2))
        lo_val, hi_val = s.percentile(lo), s.percentile(hi)
        # Allow 1-ulp slack from floating-point interpolation.
        assert lo_val <= hi_val + 1e-9 * max(1.0, abs(lo_val), abs(hi_val))


class TestThroughputMeter:
    def test_only_counts_inside_window(self):
        m = ThroughputMeter()
        m.record(100)  # before start: ignored
        m.start(now=1000.0)
        m.record(64)
        m.record(64)
        m.stop(now=1128.0)
        m.record(100)  # after stop: ignored
        assert m.bytes_total == 128
        assert m.ops_total == 2
        assert m.gbps == pytest.approx(1.0)
        assert m.mops == pytest.approx(2 / 128 * 1e3)

    def test_zero_window(self):
        m = ThroughputMeter()
        assert m.gbps == 0.0
        assert m.mops == 0.0


class TestBreakdown:
    def test_means_and_shares(self):
        b = Breakdown(["transfer", "strip"])
        b.add_op(transfer=100.0, strip=50.0)
        b.add_op(transfer=200.0, strip=100.0)
        assert b.mean("transfer") == pytest.approx(150.0)
        assert b.total_mean == pytest.approx(225.0)
        assert b.share("strip") == pytest.approx(75.0 / 225.0)

    def test_unknown_component_rejected(self):
        b = Breakdown(["a"])
        with pytest.raises(KeyError):
            b.add("b", 1.0)

    def test_means_dict(self):
        b = Breakdown(["a", "b"])
        b.add("a", 2.0)
        b.add("b", 4.0)
        assert b.means() == {"a": 2.0, "b": 4.0}
