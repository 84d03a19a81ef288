"""Pooling and snapshot semantics across the metrics layer.

The sweep report and the metrics digest rest on these properties:

* a distribution pooled from several sample streams answers every
  percentile query as if one stream had produced it, and pooling an
  empty stream is a no-op;
* a registry snapshot is plain data, and its digest is bit-exact.
"""

import math
import random

import pytest

from repro.metrics import Distribution, MetricsRegistry


def lognormal_stream(n, seed=11):
    rng = random.Random(seed)
    return [rng.lognormvariate(1.0, 1.2) for _ in range(n)]


class TestDistributionMerge:
    def test_merged_percentiles_equal_single_stream(self):
        vals = lognormal_stream(2000)
        whole = Distribution("d")
        shards = [[] for _ in range(4)]
        for i, v in enumerate(vals):
            whole.add(v)
            shards[i % 4].append(v)
        pooled = Distribution("d")
        for shard in shards:
            pooled.extend(shard)
        assert len(pooled) == len(whole)
        for p in (0, 10, 50, 90, 95, 99, 100):
            assert pooled.percentile(p) == whole.percentile(p)
        assert pooled.mean() == pytest.approx(whole.mean())

    def test_merge_empty_edges(self):
        full = Distribution("d")
        full.add(1.0)
        full.extend([])
        assert len(full) == 1
        assert full.percentile(50) == 1.0
        empty = Distribution("d")
        empty.extend([])
        assert len(empty) == 0
        with pytest.raises(ValueError):
            empty.percentile(50)


class TestRegistryDigest:
    def build(self, latency=1.0):
        reg = MetricsRegistry()
        reg.counter("calls.received").add(10.0, 3.0)
        reg.gauge("util", 0.5).set(20.0, 0.7)
        reg.distribution("latency").extend([3.0, latency, 2.0])
        return reg

    def test_snapshot_is_plain_data(self):
        import json
        snap = self.build().snapshot()
        json.dumps(snap)  # must be JSON-serializable end to end
        # Always-empty key, kept so pinned metrics digests hold.
        assert snap["sketches"] == {}
        assert snap["counters"]["calls.received"]["total"] == 3.0

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
