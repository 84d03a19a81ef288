"""Merge/snapshot semantics across the metrics layer.

The sweep engine's correctness rests on these properties:

* array-backed types (Counter, Distribution) merge *exactly* — the
  merged object answers every query as if one stream had produced it;
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
)


def lognormal_stream(n, seed=11):
    rng = random.Random(seed)
    return [rng.lognormvariate(1.0, 1.2) for _ in range(n)]


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


class TestRegistryMerge:
    def build(self, offset=0.0):
        reg = MetricsRegistry()
        reg.counter("calls.received").add(10.0 + offset, 3.0)
        reg.gauge("util", 0.5).set(20.0 + offset, 0.7)
        reg.distribution("latency").add(1.0 + offset)
        return reg

    def test_snapshot_is_plain_data_and_roundtrips(self):
        import json
        reg = self.build()
        snap = reg.snapshot()
        json.dumps(snap)  # must be JSON-serializable end to end
        # Always-empty key, kept so pinned metrics digests hold.
        assert snap["sketches"] == {}
        restored = MetricsRegistry.from_snapshot(snap)
        assert restored.counter("calls.received").total == 3.0
        assert restored.distribution("latency").percentile(50) == 1.0

    def test_merge_combines_and_copies(self):
        a, b = self.build(), self.build(offset=100.0)
        b.counter("only.b").add(5.0)
        a.merge(b)
        assert a.counter("calls.received").total == 6.0
        assert len(a.distribution("latency")) == 2
        assert a.counter("only.b").total == 1.0
        # adopted metrics are copies, not aliases
        b.counter("only.b").add(6.0)
        assert a.counter("only.b").total == 1.0

    def test_merge_accepts_raw_snapshot_dict(self):
        a = self.build()
        a.merge(self.build(offset=50.0).snapshot())
        assert a.counter("calls.received").total == 6.0

    def test_self_merge_rejected_but_own_snapshot_folds(self):
        a = self.build()
        before = a.digest()
        with pytest.raises(ValueError, match="itself"):
            a.merge(a)
        assert a.digest() == before  # the refused merge changed nothing
        a.merge(a.snapshot())
        assert a.counter("calls.received").total == 6.0
        assert len(a.distribution("latency")) == 2


class TestRegistryDigest:
    def build(self, latency=1.0):
        reg = MetricsRegistry()
        reg.counter("calls.received").add(10.0, 3.0)
        reg.gauge("util", 0.5).set(20.0, 0.7)
        reg.distribution("latency").extend([3.0, latency, 2.0])
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
