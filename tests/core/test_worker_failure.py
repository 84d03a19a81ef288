"""Tests for worker failure injection and outage recovery (§4.4)."""

import math

import pytest

from repro import Simulator, XFaaS, build_topology
from repro.cluster import MachineSpec
from repro.core import TRAFFIC_MATRIX_KEY, CallOutcome, Worker
from repro.core.call import CallIdAllocator, CallState, FunctionCall
from repro.workloads import (
    Criticality,
    FunctionSpec,
    LogNormal,
    ResourceProfile,
    RetryPolicy,
)


def profile(cpu=50.0, exec_s=0.5):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.2),
        memory_mb=LogNormal(mu=math.log(32.0), sigma=0.2),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.2))


_ids = CallIdAllocator()


class TestWorkerFail:
    def test_fail_interrupts_running_calls(self):
        sim = Simulator(seed=1)
        outcomes = []
        worker = Worker(sim, "w", "r",
                        on_finish=lambda c, o: outcomes.append(o))
        spec = FunctionSpec(name="f", profile=profile(exec_s=100.0))
        call = FunctionCall(spec=spec, submit_time=0.0, start_time=0.0,
                            region_submitted="r", call_id=_ids.allocate())
        assert worker.execute(call)
        worker.fail()
        assert outcomes == [CallOutcome.WORKER_FULL]
        assert worker.running_count == 0
        assert worker.cpu.load == pytest.approx(0.0)

    def test_aborted_run_cannot_finish_a_later_run(self):
        # fail() must cancel every completion event the aborted runs
        # armed: one left armed would end the call's next run on this
        # worker at the aborted run's finish time.
        sim = Simulator(seed=6)
        finished = []
        worker = Worker(sim, "w", "r",
                        on_finish=lambda c, o: finished.append((sim.now, o)))
        fixed = ResourceProfile(
            cpu_minstr=LogNormal(mu=math.log(50.0), sigma=0.0),
            memory_mb=LogNormal(mu=math.log(32.0), sigma=0.0),
            exec_time_s=LogNormal(mu=math.log(10.0), sigma=0.0))
        call = FunctionCall(spec=FunctionSpec(name="f", profile=fixed),
                            submit_time=0.0, start_time=0.0,
                            region_submitted="r", call_id=_ids.allocate())
        assert worker.execute(call)
        sim.run_until(1.0)
        worker.fail()
        worker.recover()
        assert worker.execute(call)  # the retry lands on the same worker
        sim.run_until(100.0)
        assert [o for _, o in finished] == [CallOutcome.WORKER_FULL,
                                            CallOutcome.OK]
        assert finished[1][0] > 1.0 + 10.0

    def test_offline_refuses_admission(self):
        sim = Simulator(seed=2)
        worker = Worker(sim, "w", "r")
        worker.fail()
        call = FunctionCall(spec=FunctionSpec(name="f", profile=profile()),
                            submit_time=0.0, start_time=0.0,
                            region_submitted="r", call_id=_ids.allocate())
        assert not worker.execute(call)

    def test_recover_restarts_jit_cold(self):
        sim = Simulator(seed=3)
        worker = Worker(sim, "w", "r")
        worker.fail()
        worker.recover()
        assert worker.online
        # Runtime restarted without profile data: the 21-minute ramp.
        assert worker.jit.speed(sim.now) < 1.0
        assert worker.jit.time_to_max(sim.now) == pytest.approx(1260.0)
        assert worker.resident_functions == 0

    def test_fail_idempotent(self):
        sim = Simulator(seed=4)
        worker = Worker(sim, "w", "r")
        worker.fail()
        worker.fail()
        worker.recover()
        worker.recover()
        assert worker.online


class TestRegionOutage:
    def test_calls_retry_to_surviving_region(self):
        """A whole region goes down mid-flight; its calls complete in the
        other region through NACK redelivery and cross-region pulls."""
        sim = Simulator(seed=5)
        topo = build_topology(n_regions=2, workers_per_unit=3)
        platform = XFaaS(sim, topo)
        spec = FunctionSpec(name="f", profile=profile(exec_s=20.0),
                            retry_policy=RetryPolicy(max_attempts=5,
                                                     retry_delay_s=1.0))
        platform.register_function(spec)
        r0, r1 = topo.region_names
        # Let r1 help r0 once the outage hits.
        platform.config.publish(TRAFFIC_MATRIX_KEY,
                                {r1: {r1: 0.5, r0: 0.5}})
        calls = [platform.submit("f", region=r0) for _ in range(12)]
        sim.run_until(10.0)  # calls are running in both regions
        for worker in platform.workers_by_region[r0]:
            worker.fail()
        platform.schedulers[r0].stop()  # region infrastructure down too
        sim.run_until(900.0)
        done = sum(1 for c in calls if c.state is CallState.COMPLETED)
        assert done == 12
        # Everything that finished after the outage ran in r1.
        late = [c for c in calls if c.finish_time and c.finish_time > 10.0]
        assert late and all(c.worker_name.startswith(r1) for c in late)

    def test_criticality_survival_under_capacity_crunch(self):
        """§4.4: under a capacity crunch, high-criticality calls are more
        likely to execute (on time) than low-criticality ones."""
        sim = Simulator(seed=6)
        topo = build_topology(
            n_regions=1, workers_per_unit=2,
            machine_spec=MachineSpec(cores=2, core_mips=500, threads=8))
        platform = XFaaS(sim, topo)
        crit = FunctionSpec(name="crit", criticality=Criticality.CRITICAL,
                            quota_minstr_per_s=1.0e9,
                            profile=profile(cpu=500.0, exec_s=1.0))
        low = FunctionSpec(name="low", criticality=Criticality.LOW,
                           quota_minstr_per_s=1.0e9,
                           profile=profile(cpu=500.0, exec_s=1.0))
        platform.register_function(crit)
        platform.register_function(low)
        # Crunch: lose half the workers, then offer 3x capacity demand.
        workers = platform.workers_by_region[topo.region_names[0]]
        workers[0].fail()
        for _ in range(300):
            platform.submit("crit")
            platform.submit("low")
        sim.run_until(240.0)
        crit_traces = [t for t in platform.traces.completed()
                       if t.function == "crit"]
        low_traces = [t for t in platform.traces.completed()
                      if t.function == "low"]
        # The critical function gets the scarce capacity first: all of
        # it completes, the low-criticality backlog is still deferred.
        assert len(crit_traces) == 300
        assert len(low_traces) < 0.8 * 300
        crit_delay = sorted(t.queueing_delay for t in crit_traces)
        low_delay = sorted(t.queueing_delay for t in low_traces)
        assert crit_delay[len(crit_delay) // 2] < \
            low_delay[len(low_delay) // 2]
