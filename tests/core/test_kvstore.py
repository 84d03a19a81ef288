"""Tests for the distributed KV store (big-args spill, §4.2)."""

import math
import os
import subprocess
import sys

import pytest

from repro import PlatformParams, Simulator, XFaaS, build_topology
from repro.core import DistributedKVStore, KVStoreParams
from repro.workloads import FunctionSpec, LogNormal, ResourceProfile


def profile():
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(20.0), sigma=0.2),
        memory_mb=LogNormal(mu=math.log(32.0), sigma=0.2),
        exec_time_s=LogNormal(mu=math.log(0.2), sigma=0.2))


class TestKVStore:
    def test_put_get_delete_roundtrip(self):
        store = DistributedKVStore(Simulator())
        assert store.put("k", 128.0)
        assert store.contains("k")
        assert store.get("k") == pytest.approx(0.125)
        store.delete("k")
        assert not store.contains("k")
        assert store.used_mb == pytest.approx(0.0)

    def test_duplicate_put_rejected(self):
        store = DistributedKVStore(Simulator())
        store.put("k", 1.0)
        with pytest.raises(KeyError):
            store.put("k", 1.0)

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            DistributedKVStore(Simulator()).get("ghost")

    def test_delete_missing_is_noop(self):
        store = DistributedKVStore(Simulator())
        store.delete("ghost")
        assert store.delete_count == 0

    def test_shard_capacity_rejection(self):
        store = DistributedKVStore(
            Simulator(), KVStoreParams(shards=1, shard_capacity_mb=1.0))
        assert store.put("a", 512.0)   # 0.5 MB
        assert store.put("b", 500.0)
        assert not store.put("c", 200.0)  # shard full
        assert store.reject_count == 1
        store.delete("a")
        assert store.put("c", 200.0)

    def test_shard_choice_ignores_hash_seed(self):
        # str hashes are salted per process: the accept/reject pattern of
        # a fixed put sequence must not depend on PYTHONHASHSEED.
        script = (
            "from repro import Simulator\n"
            "from repro.core import DistributedKVStore, KVStoreParams\n"
            "store = DistributedKVStore(Simulator(), KVStoreParams(\n"
            "    shards=8, shard_capacity_mb=1.0))\n"
            "print(''.join('1' if store.put(f'args/{i}', 300.0) else '0'\n"
            "              for i in range(40)))\n")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        patterns = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.abspath(src))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=60,
                                 check=True)
            patterns.append(out.stdout.strip())
        assert len(patterns[0]) == 40 and "0" in patterns[0]
        assert patterns[0] == patterns[1]

    def test_occupancy_accounting(self):
        store = DistributedKVStore(Simulator())
        for i in range(10):
            store.put(f"k{i}", 1024.0)
        assert store.entry_count == 10
        assert store.used_mb == pytest.approx(10.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KVStoreParams(shards=0)
        with pytest.raises(ValueError):
            KVStoreParams(shard_capacity_mb=0.0)


class TestPlatformSpillLifecycle:
    def test_spilled_args_deleted_on_completion(self):
        sim = Simulator(seed=7)
        platform = XFaaS(sim, build_topology(n_regions=1, workers_per_unit=2))
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        for _ in range(10):
            platform.submit("f", args_size_kb=500.0)  # above spill threshold
        assert platform.kvstore.entry_count == 10
        sim.run_until(120.0)
        assert platform.completed_count() == 10
        # Finalized calls clean their spilled arguments up.
        assert platform.kvstore.entry_count == 0
        assert platform.kvstore.used_mb == pytest.approx(0.0)

    def test_small_args_not_spilled(self):
        sim = Simulator(seed=8)
        platform = XFaaS(sim, build_topology(n_regions=1, workers_per_unit=2))
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        platform.submit("f", args_size_kb=4.0)
        assert platform.kvstore.entry_count == 0

    def test_full_store_throttles_submission(self):
        sim = Simulator(seed=9)
        params = PlatformParams()
        platform = XFaaS(sim, build_topology(n_regions=1, workers_per_unit=2),
                         params)
        # Replace the store with a tiny one.
        from repro.core import DistributedKVStore as KV
        platform.kvstore = KV(sim, KVStoreParams(shards=1,
                                                 shard_capacity_mb=0.5))
        for frontend in platform.frontends.values():
            frontend.normal.kvstore = platform.kvstore
            frontend.spiky.kvstore = platform.kvstore
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        results = [platform.submit("f", args_size_kb=200.0)
                   for _ in range(10)]
        throttled = sum(1 for r in results if r is None)
        assert throttled > 0
        assert platform.kvstore.reject_count == throttled
