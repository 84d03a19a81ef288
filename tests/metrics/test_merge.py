"""Merge/snapshot semantics across the metrics layer.

The sweep engine's correctness rests on these properties:

* array-backed types (Counter, Distribution) merge *exactly* — the
  merged object answers every query as if one stream had produced it;
* StreamingMean merges exactly (Chan et al. parallel mean/variance);
* P² sketch merges approximately — merged quantiles from shards must
  land within 5% relative error of the single-stream exact value;
* merging empties is a no-op and merging *into* an empty adopts the
  other side;
* a registry snapshot is plain data that round-trips losslessly.
"""

import math
import random

import pytest

from repro.metrics import (
    Counter,
    Distribution,
    Gauge,
    MetricsRegistry,
    P2Quantile,
    P2Sketch,
    StreamingMean,
)


def lognormal_stream(n, seed=11):
    rng = random.Random(seed)
    return [rng.lognormvariate(1.0, 1.2) for _ in range(n)]


def exact_quantile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class TestCounterMerge:
    def test_merge_exactness_unit_amounts(self):
        rng = random.Random(3)
        whole, a, b = Counter("c"), Counter("c"), Counter("c")
        for i in range(400):
            t = rng.uniform(0, 1800)
            whole.add(t)
            (a if i % 2 else b).add(t)
        a.merge(b)
        assert a.total == whole.total
        assert a.series() == whole.series()

    def test_merge_float_amounts_within_fp_noise(self):
        rng = random.Random(4)
        whole, a, b = Counter("c"), Counter("c"), Counter("c")
        for i in range(300):
            t, amt = rng.uniform(0, 600), rng.uniform(0.1, 3.0)
            whole.add(t, amt)
            (a if i % 3 else b).add(t, amt)
        a.merge(b)
        assert a.total == pytest.approx(whole.total)
        for (ta, va), (tw, vw) in zip(a.series(), whole.series()):
            assert ta == tw and va == pytest.approx(vw)

    def test_merge_disjoint_time_ranges(self):
        early, late = Counter("c"), Counter("c")
        early.add(30.0, 2.0)
        late.add(600.0, 5.0)
        early.merge(late)
        series = dict(early.series())
        assert series[0.0] == 2.0 and series[600.0] == 5.0
        # gap buckets exist and are zero
        assert series[300.0] == 0.0

    def test_merge_empty_is_noop_and_into_empty_adopts(self):
        empty, full = Counter("c"), Counter("c")
        full.add(10.0, 3.0)
        before = full.series()
        full.merge(Counter("c"))
        assert full.series() == before
        empty.merge(full)
        assert empty.series() == before and empty.total == 3.0

    def test_window_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Counter("a", 60.0).merge(Counter("a", 30.0))

    def test_snapshot_roundtrip(self):
        c = Counter("c")
        c.add(59.0, 2.0)
        c.add(1000.0)
        restored = Counter.from_snapshot(c.snapshot())
        assert restored.series() == c.series()
        assert restored.total == c.total


class TestDistributionMerge:
    def test_merged_percentiles_equal_single_stream(self):
        vals = lognormal_stream(2000)
        whole = Distribution("d")
        shards = [Distribution("d") for _ in range(4)]
        for i, v in enumerate(vals):
            whole.add(v)
            shards[i % 4].add(v)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert len(merged) == len(whole)
        for p in (0, 10, 50, 90, 95, 99, 100):
            assert merged.percentile(p) == whole.percentile(p)
        assert merged.mean() == pytest.approx(whole.mean())

    def test_merge_empty_edges(self):
        empty, full = Distribution("d"), Distribution("d")
        full.add(1.0)
        full.merge(Distribution("d"))
        assert len(full) == 1
        empty.merge(full)
        assert empty.percentile(50) == 1.0
        both = Distribution("d")
        both.merge(Distribution("d"))
        assert len(both) == 0
        with pytest.raises(ValueError):
            both.percentile(50)

    def test_snapshot_roundtrip(self):
        d = Distribution("d")
        for v in (3.0, 1.0, 2.0):
            d.add(v)
        restored = Distribution.from_snapshot(d.snapshot())
        assert restored.percentile(50) == d.percentile(50)
        assert len(restored) == 3


class TestGaugeMerge:
    def test_levels_sum_over_union_of_breakpoints(self):
        a, b = Gauge("g", 1.0), Gauge("g", 2.0)
        a.set(10.0, 3.0)
        b.set(5.0, 4.0)
        b.set(15.0, 1.0)
        a.merge(b)
        assert a._points == [(0.0, 3.0), (5.0, 5.0), (10.0, 7.0),
                             (15.0, 4.0)]

    def test_time_average_of_merge_is_sum_of_time_averages(self):
        rng = random.Random(5)
        a, b = Gauge("g", rng.uniform(0, 5)), Gauge("g", rng.uniform(0, 5))
        t = 0.0
        for _ in range(50):
            t += rng.uniform(0.5, 10.0)
            rng.choice((a, b)).set(t, rng.uniform(0, 8))
        expected = a.time_average(0, 600) + b.time_average(0, 600)
        a.merge(b)
        assert a.time_average(0, 600) == pytest.approx(expected)

    def test_snapshot_roundtrip(self):
        g = Gauge("g", 2.5)
        g.set(7.0, 4.0)
        restored = Gauge.from_snapshot(g.snapshot())
        assert restored._points == g._points
        assert restored.value == 4.0


class TestStreamingMeanMerge:
    def test_merge_exactness(self):
        vals = lognormal_stream(1500, seed=6)
        whole, a, b = StreamingMean(), StreamingMean(), StreamingMean()
        for i, v in enumerate(vals):
            whole.add(v)
            (a if i % 3 else b).add(v)
        a.merge(b)
        assert a.count == whole.count
        assert a.mean == pytest.approx(whole.mean, rel=1e-12)
        assert a.variance == pytest.approx(whole.variance, rel=1e-9)

    def test_merge_empty_edges(self):
        full = StreamingMean()
        full.add(2.0)
        full.add(4.0)
        full.merge(StreamingMean())
        assert full.count == 2 and full.mean == 3.0
        adopted = StreamingMean()
        adopted.merge(full)
        assert adopted.count == 2 and adopted.mean == 3.0


class TestP2Merge:
    def test_merged_sketch_quantiles_within_5pct_of_single_stream(self):
        vals = lognormal_stream(4000, seed=7)
        single = P2Sketch((0.5, 0.95, 0.99))
        shards = [P2Sketch((0.5, 0.95, 0.99)) for _ in range(4)]
        for i, v in enumerate(vals):
            single.add(v)
            shards[i % 4].add(v)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert merged.count == len(vals)
        for q in (0.5, 0.95, 0.99):
            # Merging must not add more than 5% on top of what a single
            # stream would estimate (the acceptance bar) ...
            assert merged.quantile(q) == pytest.approx(
                single.quantile(q), rel=0.05)
        for q in (0.5, 0.95):
            # ... and away from the extreme tail it also stays within 5%
            # of the exact nearest-rank value.
            assert merged.quantile(q) == pytest.approx(
                exact_quantile(vals, q), rel=0.05)
        assert merged.min == min(vals) and merged.max == max(vals)
        assert merged.mean == pytest.approx(
            sum(vals) / len(vals), rel=1e-9)

    def test_merge_uninitialized_sides(self):
        # <5 samples on one side: raw samples replay into the other.
        big, tiny = P2Quantile(0.5), P2Quantile(0.5)
        vals = lognormal_stream(500, seed=8)
        for v in vals:
            big.add(v)
        tiny.add(42.0)
        tiny.add(7.0)
        n_before = big.count
        big.merge(tiny)
        assert big.count == n_before + 2
        # And the mirror: uninitialized adopts the initialized state.
        tiny2 = P2Quantile(0.5)
        tiny2.add(3.0)
        tiny2.merge(big)
        assert tiny2.count == big.count + 1
        # One extra sample cannot move the adopted estimate materially.
        assert tiny2.value == pytest.approx(big.value, rel=0.05)

    def test_merge_empty_is_noop(self):
        est = P2Quantile(0.9)
        for v in lognormal_stream(100, seed=9):
            est.add(v)
        before = est.value
        est.merge(P2Quantile(0.9))
        assert est.value == before
        empty = P2Quantile(0.9)
        empty.merge(P2Quantile(0.9))
        with pytest.raises(ValueError):
            _ = empty.value

    def test_quantile_mismatch_rejected(self):
        with pytest.raises(ValueError):
            P2Quantile(0.5).merge(P2Quantile(0.9))
        with pytest.raises(ValueError):
            P2Sketch((0.5,)).merge(P2Sketch((0.9,)))

    def test_sketch_snapshot_roundtrip(self):
        sketch = P2Sketch((0.5, 0.99))
        for v in lognormal_stream(300, seed=10):
            sketch.add(v)
        restored = P2Sketch.from_snapshot(sketch.snapshot())
        assert restored.count == sketch.count
        assert restored.quantile(0.5) == sketch.quantile(0.5)
        assert restored.summary() == sketch.summary()


class TestRegistryMerge:
    def build(self, offset=0.0):
        reg = MetricsRegistry()
        reg.counter("calls.received").add(10.0 + offset, 3.0)
        reg.gauge("util", 0.5).set(20.0 + offset, 0.7)
        reg.distribution("latency").add(1.0 + offset)
        reg.sketch("cost").add(2.0 + offset)
        return reg

    def test_snapshot_is_plain_data_and_roundtrips(self):
        import json
        reg = self.build()
        snap = reg.snapshot()
        json.dumps(snap)  # must be JSON-serializable end to end
        restored = MetricsRegistry.from_snapshot(snap)
        assert restored.counter("calls.received").total == 3.0
        assert restored.distribution("latency").percentile(50) == 1.0
        assert restored.sketch("cost").count == 1

    def test_merge_combines_and_copies(self):
        a, b = self.build(), self.build(offset=100.0)
        b.counter("only.b").add(5.0)
        a.merge(b)
        assert a.counter("calls.received").total == 6.0
        assert len(a.distribution("latency")) == 2
        assert a.sketch("cost").count == 2
        assert a.counter("only.b").total == 1.0
        # adopted metrics are copies, not aliases
        b.counter("only.b").add(6.0)
        assert a.counter("only.b").total == 1.0

    def test_merge_accepts_raw_snapshot_dict(self):
        a = self.build()
        a.merge(self.build(offset=50.0).snapshot())
        assert a.counter("calls.received").total == 6.0


class TestRegistryDigest:
    def build(self, latency=1.0):
        reg = MetricsRegistry()
        reg.counter("calls.received").add(10.0, 3.0)
        reg.gauge("util", 0.5).set(20.0, 0.7)
        reg.distribution("latency").extend([3.0, latency, 2.0])
        reg.sketch("cost").add(2.0)
        return reg

    def test_equal_registries_equal_digest(self):
        assert self.build().digest() == self.build().digest()
        assert len(self.build().digest()) == 64

    def test_one_ulp_changes_digest(self):
        nudged = math.nextafter(1.0, 2.0)
        assert self.build().digest() != self.build(latency=nudged).digest()

    def test_percentile_query_leaves_digest_unchanged(self):
        reg = self.build()
        before = reg.digest()
        reg.distribution("latency").percentile(50)  # sorts in place
        assert reg.digest() == before

    def test_snapshot_roundtrip_keeps_digest(self):
        reg = self.build()
        restored = MetricsRegistry.from_snapshot(reg.snapshot())
        assert restored.digest() == reg.digest()
