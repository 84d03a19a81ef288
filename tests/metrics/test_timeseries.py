"""Tests for Counter, Gauge, Distribution."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import Counter, Distribution, Gauge


class TestCounter:
    def test_bucketing(self):
        c = Counter("x", window=60.0)
        c.add(0)
        c.add(59.9)
        c.add(60.0)
        assert c.series() == [(0.0, 2.0), (60.0, 1.0)]

    def test_total(self):
        c = Counter("x")
        for t in range(5):
            c.add(t, amount=2.0)
        assert c.total == 10.0

    def test_dense_series_fills_gaps(self):
        c = Counter("x", window=10.0)
        c.add(5)
        c.add(35)
        assert c.values() == [1.0, 0.0, 0.0, 1.0]

    def test_series_window_clipping(self):
        c = Counter("x", window=10.0)
        for t in (5, 15, 25, 35):
            c.add(t)
        assert c.values(t_start=10.0, t_end=30.0) == [1.0, 1.0]

    def test_empty_series(self):
        assert Counter("x").series() == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Counter("x", window=0)


class TestGauge:
    def test_time_average_piecewise(self):
        g = Gauge("g", initial=0.0)
        g.set(10.0, 10.0)
        # 0 for 10s, then 10 for 10s → average 5 over [0, 20].
        assert g.time_average(0.0, 20.0) == pytest.approx(5.0)

    def test_time_average_sub_interval(self):
        g = Gauge("g", initial=2.0)
        g.set(10.0, 4.0)
        assert g.time_average(5.0, 15.0) == pytest.approx(3.0)

    def test_adjust(self):
        g = Gauge("g", initial=1.0)
        g.adjust(5.0, 2.5)
        assert g.value == 3.5

    def test_time_backwards_rejected(self):
        g = Gauge("g")
        g.set(10.0, 1.0)
        with pytest.raises(ValueError):
            g.set(5.0, 2.0)

    def test_same_time_overwrites(self):
        g = Gauge("g")
        g.set(5.0, 1.0)
        g.set(5.0, 9.0)
        assert g.value == 9.0

    def test_sampled_series(self):
        g = Gauge("g", initial=0.0)
        g.set(10.0, 1.0)
        samples = g.sampled(0.0, 20.0, step=5.0)
        assert samples == [(0.0, 0.0), (5.0, 0.0), (10.0, 1.0),
                           (15.0, 1.0), (20.0, 1.0)]

    @pytest.mark.parametrize("step", [0.0, -5.0])
    def test_sampled_rejects_nonpositive_step(self, step):
        # A non-positive step never reaches t_end; it must fail fast.
        g = Gauge("g", initial=0.0)
        with pytest.raises(ValueError, match="step must be positive"):
            g.sampled(0.0, 20.0, step=step)

    def test_max_value(self):
        g = Gauge("g", initial=1.0)
        g.set(5.0, 7.0)
        g.set(10.0, 3.0)
        assert g.max_value() == 7.0


class TestDistribution:
    def test_percentile_nearest_rank(self):
        d = Distribution("d")
        d.extend(range(1, 101))
        assert d.percentile(50) == 50
        assert d.percentile(99) == 99
        assert d.percentile(100) == 100
        assert d.percentile(0) == 1

    def test_single_sample(self):
        d = Distribution("d")
        d.add(42.0)
        for p in (0, 10, 50, 99, 100):
            assert d.percentile(p) == 42.0

    def test_empty_raises(self):
        d = Distribution("d")
        for query in (lambda: d.percentile(50), d.mean, d.min, d.max,
                      lambda: d.fraction_below(1.0)):
            with pytest.raises(ValueError, match="'d' is empty"):
                query()

    def test_out_of_range_percentile(self):
        d = Distribution("d")
        d.add(1.0)
        with pytest.raises(ValueError):
            d.percentile(101)

    def test_mean_min_max(self):
        d = Distribution("d")
        d.extend([1.0, 2.0, 3.0])
        assert d.mean() == pytest.approx(2.0)
        assert d.min() == 1.0
        assert d.max() == 3.0

    def test_fraction_below(self):
        d = Distribution("d")
        d.extend(range(10))
        assert d.fraction_below(5) == pytest.approx(0.5)

    def test_extend_appends_in_order_and_marks_unsorted(self):
        from array import array
        d = Distribution("d")
        d.add(1.0)
        d.extend(array("d", [3.0, 2.0]))
        assert d.snapshot()["samples"] == [1.0, 3.0, 2.0]
        assert d.percentile(100) == 3.0
        assert d.min() == 1.0

    def test_extend_with_nothing_keeps_sorted_flag(self):
        d = Distribution("d")
        d.extend([1.0, 2.0])
        d.percentile(50)
        d.extend([])
        assert d._sorted

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_percentile_is_a_sample_and_monotone(self, values, p):
        d = Distribution("d")
        d.extend(values)
        v = d.percentile(p)
        assert v in values
        assert d.percentile(0) <= v <= d.percentile(100)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=2, max_size=100))
    @settings(max_examples=60)
    def test_percentiles_monotone_in_p(self, values):
        d = Distribution("d")
        d.extend(values)
        ps = [d.percentile(p) for p in (10, 25, 50, 75, 90, 99)]
        assert ps == sorted(ps)
