"""Tests for the elastic/harvest-capacity extension (§5.3 ongoing work)."""

import math

import pytest

from repro import Simulator, XFaaS, build_topology
from repro.cluster import MachineSpec
from repro.core import CallOutcome, FunctionCall, Worker
from repro.core.call import CallIdAllocator
from repro.core.elastic import ElasticPool, ElasticSchedule, ElasticWorker
from repro.workloads import (
    Criticality,
    FunctionSpec,
    LogNormal,
    QuotaType,
    ResourceProfile,
)


def profile(cpu=10.0, exec_s=1.0):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(32.0), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


_ids = CallIdAllocator()


def opportunistic_call(sim, name="opp"):
    spec = FunctionSpec(name=name, quota_type=QuotaType.OPPORTUNISTIC,
                        profile=profile())
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r", call_id=_ids.allocate())


def reserved_call(sim, name="res"):
    spec = FunctionSpec(name=name, criticality=Criticality.HIGH,
                        profile=profile())
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r", call_id=_ids.allocate())


class TestElasticWorker:
    def test_rejects_reserved_calls(self):
        sim = Simulator(seed=1)
        worker = ElasticWorker(sim, "e", "r")
        worker.grant()
        assert not worker.execute(reserved_call(sim))
        assert worker.execute(opportunistic_call(sim))

    def test_unavailable_rejects_everything(self):
        sim = Simulator(seed=2)
        worker = ElasticWorker(sim, "e", "r")
        assert not worker.execute(opportunistic_call(sim))

    def test_reclaim_interrupts_and_nacks(self):
        sim = Simulator(seed=3)
        outcomes = []
        worker = ElasticWorker(sim, "e", "r",
                               on_finish=lambda c, o: outcomes.append(o))
        worker.grant()
        call = opportunistic_call(sim)
        assert worker.execute(call)
        worker.reclaim()
        assert outcomes == [CallOutcome.WORKER_FULL]
        assert worker.running_count == 0
        # CPU accounting balanced after interruption.
        sim.run_until(100.0)
        assert worker.cpu.load == pytest.approx(0.0)

    def test_granted_worker_admits_like_a_plain_worker(self):
        # Same machine, params and background calls: a granted elastic
        # worker adds no refusal, so its admission is the base one.
        machine = MachineSpec(cores=2, threads=6, memory_mb=8 * 1024)
        spec = FunctionSpec(
            name="bg", criticality=Criticality.LOW,
            profile=ResourceProfile(
                cpu_minstr=LogNormal(mu=math.log(3000.0), sigma=1.0),
                memory_mb=LogNormal(mu=math.log(256.0), sigma=1.0),
                exec_time_s=LogNormal(mu=math.log(2.0), sigma=0.8)))
        sims = [Simulator(seed=7), Simulator(seed=7)]
        plain = Worker(sims[0], "w", "r", machine=machine)
        elastic = ElasticWorker(sims[1], "w", "r", machine=machine)
        elastic.grant()
        calls = ([], [])
        ids = CallIdAllocator()
        for step in range(120):
            t = step * 0.25
            call_id = ids.allocate()
            for sim, worker, made in zip(sims, (plain, elastic), calls):
                sim.run_until(t)
                call = FunctionCall(spec=spec, submit_time=t, start_time=t,
                                    region_submitted="r", call_id=call_id)
                made.append((call, worker.execute(call)))
            cols = [(w._arrays.running[w._index], w._arrays.cpu_load[w._index],
                     w._arrays.mem_mb[w._index]) for w in (plain, elastic)]
            assert cols[0] == cols[1], step
        for sim in sims:
            sim.run_until(200.0)
        assert ([(ok, c.finish_time) for c, ok in calls[0]]
                == [(ok, c.finish_time) for c, ok in calls[1]])
        assert plain.admission_rejections == elastic.admission_rejections
        assert 0 < plain.admission_rejections < 120
        assert plain.calls_started == elastic.calls_started > 0

    def test_elastic_refusals_draw_no_resources(self):
        sim = Simulator(seed=8)
        worker = ElasticWorker(sim, "e", "r")
        call = opportunistic_call(sim)
        assert not worker.execute(call)  # not granted yet
        assert call.resources is None
        worker.grant()
        call = reserved_call(sim)
        assert not worker.execute(call)
        assert call.resources is None
        assert worker.admission_rejections == 2
        worker.reclaim()
        call = opportunistic_call(sim)
        assert not worker.execute(call)
        assert call.resources is None

    def test_schedule_windows(self):
        sched = ElasticSchedule(available_windows=((0.0, 3600.0),))
        assert sched.is_available(100.0)
        assert not sched.is_available(7200.0)
        assert sched.is_available(86_400.0 + 100.0)  # next day


class TestElasticPool:
    def test_grant_reclaim_cycle(self):
        sim = Simulator(seed=4)
        pool = ElasticPool(sim, "r", n_workers=2,
                           schedule=ElasticSchedule(
                               available_windows=((0.0, 600.0),)),
                           check_interval_s=30.0)
        assert len(pool.available_workers) == 2
        sim.run_until(700.0)
        assert len(pool.available_workers) == 0
        assert pool.reclaims == 2

    def test_platform_integration(self):
        sim = Simulator(seed=5)
        topo = build_topology(n_regions=1, workers_per_unit=2)
        platform = XFaaS(sim, topo)
        region = topo.region_names[0]
        pool = platform.add_elastic_pool(region, n_workers=3)
        spec = FunctionSpec(name="opp", quota_type=QuotaType.OPPORTUNISTIC,
                            profile=profile(exec_s=0.5))
        platform.register_function(spec)
        for _ in range(50):
            platform.submit("opp")
        sim.run_until(300.0)
        assert platform.completed_count() == 50
        # Elastic workers actually absorbed some of the work.
        assert sum(w.calls_completed for w in pool.workers) > 0

    def test_interrupted_calls_retry_to_completion(self):
        sim = Simulator(seed=6)
        topo = build_topology(n_regions=1, workers_per_unit=2)
        platform = XFaaS(sim, topo)
        region = topo.region_names[0]
        # Capacity vanishes at t=120 and returns at t=600.
        platform.add_elastic_pool(
            region, n_workers=2,
            schedule=ElasticSchedule(available_windows=(
                (0.0, 120.0), (600.0, 86_400.0))))
        spec = FunctionSpec(name="long", quota_type=QuotaType.OPPORTUNISTIC,
                            profile=profile(exec_s=300.0))
        platform.register_function(spec)
        for _ in range(4):
            platform.submit("long")
        sim.run_until(3600.0)
        # Every call completed despite reclaims (at-least-once retries).
        assert platform.completed_count() == 4
