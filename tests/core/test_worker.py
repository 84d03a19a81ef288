"""Tests for the worker's universal-worker behaviour (§4.5)."""

import math

import pytest

from repro.cluster import MachineSpec
from repro.core import CallOutcome, FunctionCall, Worker, WorkerParams
from repro.core.call import CallIdAllocator
from repro.sim import Simulator
from repro.workloads import FunctionSpec, LogNormal, ResourceProfile


def fixed_profile(cpu=100.0, mem=64.0, exec_s=1.0):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(mem), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


_ids = CallIdAllocator()


def make_call(sim, name="f", cpu=100.0, mem=64.0, exec_s=1.0,
              source_level=0, isolation_level=0, code_mb=5.0):
    spec = FunctionSpec(name=name, profile=fixed_profile(cpu, mem, exec_s),
                        isolation_level=isolation_level,
                        code_size_mb=code_mb)
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r", source_level=source_level,
                        call_id=_ids.allocate())


def make_worker(sim, cores=4, core_mips=1000.0, threads=8,
                memory_mb=64 * 1024.0, on_finish=None, **params):
    machine = MachineSpec(cores=cores, core_mips=core_mips, threads=threads,
                          memory_mb=memory_mb)
    return Worker(sim, "w0", "r", machine=machine,
                  params=WorkerParams(**params), on_finish=on_finish)


class TestExecution:
    def test_call_completes_after_duration(self):
        sim = Simulator()
        done = []
        worker = make_worker(sim, on_finish=lambda c, o: done.append((c, o)))
        call = make_call(sim, exec_s=2.0, cpu=1.0)
        assert worker.execute(call)
        sim.run_until(10.0)
        assert len(done) == 1
        assert done[0][1] is CallOutcome.OK
        # exec 2.0 s + 0.1 s first-call SSD code load.
        assert call.finish_time == pytest.approx(2.1)

    def test_no_cold_start_second_call(self):
        # Universal worker: only the first call pays the SSD code load.
        sim = Simulator()
        worker = make_worker(sim)
        first = make_call(sim, exec_s=1.0, cpu=1.0)
        worker.execute(first)
        sim.run_until(5.0)
        second = make_call(sim, exec_s=1.0, cpu=1.0)
        worker.execute(second)
        sim.run_until(10.0)
        assert second.finish_time - second.dispatch_time == pytest.approx(1.0)

    def test_cpu_bound_call_duration_stretches(self):
        sim = Simulator()
        worker = make_worker(sim, core_mips=1000.0)
        call = make_call(sim, cpu=5000.0, exec_s=0.5)  # 5 s of CPU
        worker.execute(call)
        sim.run_until(20.0)
        assert call.finish_time == pytest.approx(5.0 + 0.1)

    def test_jit_slowdown_after_restart(self):
        sim = Simulator()
        worker = make_worker(sim, core_mips=1000.0)
        worker.jit.restart(0.0, with_profile_data=True)  # speed 0.3 at t=0
        call = make_call(sim, cpu=3000.0, exec_s=0.1)
        worker.execute(call)
        sim.run_until(60.0)
        # CPU time 3 s at full speed → 10 s at floor speed 0.3.
        assert call.finish_time == pytest.approx(10.0 + 0.1)

    def test_concurrent_calls_different_functions(self):
        # §4.5: one runtime executes different functions concurrently.
        sim = Simulator()
        done = []
        worker = make_worker(sim, on_finish=lambda c, o: done.append(c))
        worker.execute(make_call(sim, name="a", exec_s=1.0, cpu=1.0))
        worker.execute(make_call(sim, name="b", exec_s=1.0, cpu=1.0))
        assert worker.running_count == 2
        sim.run_until(5.0)
        assert len(done) == 2

    def test_utilization_accounting(self):
        sim = Simulator()
        worker = make_worker(sim, cores=2, core_mips=1000.0)
        # 2 s CPU over 2 s wall = 1 core busy for ~2 s of a 4 core-s window.
        call = make_call(sim, cpu=2000.0, exec_s=2.0)
        worker.execute(call)
        sim.run_until(2.2)
        util = worker.take_utilization_window()
        assert util == pytest.approx(0.5, rel=0.1)


class TestAdmission:
    def test_thread_limit(self):
        sim = Simulator()
        worker = make_worker(sim, threads=2)
        assert worker.execute(make_call(sim, name="a", cpu=1.0))
        assert worker.execute(make_call(sim, name="b", cpu=1.0))
        assert not worker.execute(make_call(sim, name="c", cpu=1.0))
        assert worker.admission_rejections == 1

    def test_memory_limit(self):
        sim = Simulator()
        worker = make_worker(sim, memory_mb=8 * 1024.0,
                             runtime_baseline_mb=1024.0)
        big = make_call(sim, name="big", mem=6 * 1024.0, cpu=1.0)
        assert worker.execute(big)
        second = make_call(sim, name="big2", mem=6 * 1024.0, cpu=1.0)
        assert not worker.execute(second)

    def test_memory_freed_after_completion(self):
        sim = Simulator()
        worker = make_worker(sim, memory_mb=8 * 1024.0,
                             runtime_baseline_mb=1024.0)
        worker.execute(make_call(sim, name="a", mem=6 * 1024.0, exec_s=1.0,
                                 cpu=1.0))
        sim.run_until(5.0)
        assert worker.execute(make_call(sim, name="b", mem=6 * 1024.0,
                                        cpu=1.0))

    def test_cpu_admission(self):
        sim = Simulator()
        worker = make_worker(sim, cores=1, core_mips=1000.0)
        # Each call is pure CPU: load 1.0; one core → only one admitted.
        assert worker.execute(make_call(sim, name="a", cpu=10_000.0,
                                        exec_s=0.1))
        assert not worker.execute(make_call(sim, name="b", cpu=10_000.0,
                                            exec_s=0.1))

    def test_isolation_enforced_at_worker(self):
        # §4.7: workers independently check Bell–LaPadula flows.
        sim = Simulator()
        done = []
        worker = make_worker(sim, on_finish=lambda c, o: done.append(o))
        call = make_call(sim, source_level=2, isolation_level=0)
        assert worker.execute(call)  # handled (terminally), not refused
        assert worker.isolation_rejections == 1
        assert done == [CallOutcome.ISOLATION_DENIED]

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_cpu_admission_factor_must_be_positive(self, factor):
        with pytest.raises(ValueError, match="cpu_admission_factor"):
            WorkerParams(cpu_admission_factor=factor)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.01])
    def test_background_fraction_must_be_in_unit_interval(self, fraction):
        # 0 would refuse every background call forever; above 1 the
        # background budget would exceed the base budget.
        with pytest.raises(ValueError,
                           match="background_admission_fraction"):
            WorkerParams(background_admission_fraction=fraction)

    def test_admission_knob_edges_accepted(self):
        params = WorkerParams(cpu_admission_factor=0.5,
                              background_admission_fraction=1.0)
        assert params.background_admission_fraction == 1.0


class TestResidency:
    def test_lru_eviction_under_budget(self):
        sim = Simulator()
        worker = make_worker(sim, resident_budget_mb=40.0,
                             resident_multiplier=2.0)
        # Each function is 5 MB code → 10 MB resident; budget holds 4.
        for i in range(6):
            worker.execute(make_call(sim, name=f"f{i}", cpu=1.0,
                                     exec_s=0.01, code_mb=5.0))
            sim.run_until(sim.now + 1.0)
        assert worker.resident_functions == 4
        assert worker.evictions == 2

    def test_distinct_function_window(self):
        sim = Simulator()
        worker = make_worker(sim)
        for name in ("a", "b", "a"):
            worker.execute(make_call(sim, name=name, cpu=1.0, exec_s=0.01))
            sim.run_until(sim.now + 1.0)
        assert worker.take_distinct_functions_window() == 2
        assert worker.take_distinct_functions_window() == 0

    def test_memory_includes_resident_and_live(self):
        sim = Simulator()
        worker = make_worker(sim, runtime_baseline_mb=1000.0,
                             resident_multiplier=3.0)
        base = worker.memory_in_use_mb
        assert base == 1000.0
        worker.execute(make_call(sim, mem=100.0, code_mb=10.0, cpu=1.0,
                                 exec_s=5.0))
        assert worker.memory_in_use_mb == pytest.approx(1000.0 + 100.0 + 30.0)


class TestLoadScore:
    def test_idle_worker_scores_zero(self):
        sim = Simulator()
        worker = make_worker(sim, runtime_baseline_mb=0.0)
        assert worker.load_score() == pytest.approx(0.0)

    def test_score_grows_with_running_calls(self):
        sim = Simulator()
        worker = make_worker(sim, threads=4)
        before = worker.load_score()
        worker.execute(make_call(sim, cpu=1.0))
        assert worker.load_score() > before
