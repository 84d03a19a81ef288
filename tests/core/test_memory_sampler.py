"""The Fig 10 memory sampler reads the ``mem_mb`` column.

``Rim.sample_memory`` copies each region's memory column instead of
reading ``memory_in_use_mb`` worker by worker.  After a quick dayrun, a
1k-worker fleetrun and a run with an elastic pool added mid-run, every
worker's view must equal its column entry and the memory recomputed
from its cold state, bit for bit, and the ``worker.memory_mb``
distribution must hold the old per-worker loop's samples in order.
"""

import math
from array import array

import pytest

from repro import PlatformParams, Simulator, XFaaS, build_topology
from repro.core.rim import Rim
from repro.scenarios import build_dayrun, build_fleetrun
from repro.workloads import (
    FunctionSpec,
    LogNormal,
    QuotaType,
    ResourceProfile,
)


def _cold_memory(w):
    return (w.params.runtime_baseline_mb + w._resident_mb +
            w._live_memory_mb)


@pytest.fixture
def per_worker_samples(monkeypatch):
    """Record, at every memory sampler firing, what the per-worker loop
    over every region's workers would have added."""
    samples = array("d")
    sample_memory = Rim.sample_memory

    def recording(self):
        samples.extend(_cold_memory(w) for store in self._stores.values()
                       for w in store.workers)
        sample_memory(self)
    monkeypatch.setattr(Rim, "sample_memory", recording)
    return samples


def _elastic_run():
    sim = Simulator(seed=3)
    topology = build_topology(n_regions=2, workers_per_unit=2)
    platform = XFaaS(sim, topology, PlatformParams(
        memory_sample_interval_s=20.0))
    spec = FunctionSpec(
        name="batch", quota_type=QuotaType.OPPORTUNISTIC,
        profile=ResourceProfile(
            cpu_minstr=LogNormal(mu=math.log(50.0), sigma=0.5),
            memory_mb=LogNormal(mu=math.log(256.0), sigma=0.5),
            exec_time_s=LogNormal(mu=math.log(8.0), sigma=0.5)))
    platform.register_function(spec)
    sim.every(0.5, lambda: platform.submit(spec.name))
    region = topology.region_names[0]
    sim.call_at(50.0, lambda: platform.add_elastic_pool(region, 2))
    sim.run_until(200.0)
    elastic = platform.workers_by_region[region][-2:]
    assert sum(w.calls_started for w in elastic) > 0
    return platform


@pytest.mark.parametrize("build", [
    lambda: build_dayrun(horizon_s=600.0).platform,
    lambda: build_fleetrun(1000).platform,
    _elastic_run,
], ids=["quick-dayrun", "fleetrun-1k", "elastic-pool"])
def test_memory_column_view_and_sampler_agree(build, per_worker_samples):
    platform = build()
    for w in platform.all_workers:
        column = w._arrays.mem_mb[w._index]
        assert w.memory_in_use_mb.hex() == column.hex()
        assert _cold_memory(w).hex() == column.hex()
    dist = platform.metrics.distribution("worker.memory_mb")
    assert len(dist) == len(per_worker_samples) > 0
    assert dist._samples.tobytes() == per_worker_samples.tobytes()
