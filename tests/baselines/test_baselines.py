"""Tests for the conventional-FaaS baselines (Figure 1, Wang et al.)."""

import math

import pytest

from repro.baselines import (
    BASELINE_STEPS,
    ContainerPool,
    ContainerPoolParams,
    baseline_model,
    xfaas_model,
)
from repro.sim import Simulator
from repro.workloads import FunctionSpec, LogNormal, ResourceProfile


def profile(cpu=100.0, exec_s=1.0):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(64.0), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


class TestLifecycleModel:
    def test_baseline_pays_all_overheads(self):
        b = baseline_model().breakdown(execute_s=1.0, cold=True)
        assert b.startup_overhead_s > 3.0
        assert b.idle_overhead_s == 600.0
        assert b.billable_fraction < 0.01

    def test_baseline_warm_is_free(self):
        b = baseline_model().breakdown(execute_s=1.0, cold=False)
        assert b.startup_overhead_s == 0.0
        assert b.billable_fraction == 1.0

    def test_xfaas_eliminates_steps(self):
        # §1.2: steps (1)–(5), (9), (10) gone; (6)–(7) gone for
        # regularly invoked functions.
        x = xfaas_model(regularly_invoked=True).breakdown(1.0, cold=True)
        assert x.startup_overhead_s == pytest.approx(0.100)
        assert x.idle_overhead_s == 0.0
        assert x.shutdown_s == 0.0
        assert x.billable_fraction > 0.9

    def test_xfaas_irregular_functions_pay_jit(self):
        x = xfaas_model(regularly_invoked=False).breakdown(1.0, cold=True)
        regular = xfaas_model(regularly_invoked=True).breakdown(1.0, cold=True)
        assert x.startup_overhead_s > regular.startup_overhead_s

    def test_overhead_ratio_baseline_vs_xfaas(self):
        base = baseline_model().breakdown(1.0, cold=True)
        xf = xfaas_model().breakdown(1.0, cold=True)
        ratio = base.startup_overhead_s / xf.startup_overhead_s
        assert ratio > 30  # seconds vs ~100 ms

    def test_step_table_covers_nine_overhead_steps(self):
        numbers = [n for n, _, _ in BASELINE_STEPS]
        assert numbers == [1, 2, 3, 4, 5, 6, 7, 9, 10]

    def test_negative_execute_rejected(self):
        with pytest.raises(ValueError):
            baseline_model().breakdown(-1.0, cold=True)


class TestContainerPool:
    def _pool(self, sim=None, **params):
        sim = sim or Simulator(seed=1)
        results = []
        pool = ContainerPool(sim, capacity_cores=64,
                             params=ContainerPoolParams(**params),
                             on_done=lambda f, r: results.append((f, r)))
        return sim, pool, results

    def test_first_call_is_cold(self):
        sim, pool, results = self._pool()
        pool.register_function(FunctionSpec(name="f", profile=profile()))
        pool.submit("f")
        sim.run_until(60.0)
        assert pool.cold_starts == 1
        assert results[0][1].cold
        assert results[0][1].startup_delay > 3.0

    def test_warm_reuse_within_keepalive(self):
        sim, pool, results = self._pool(keepalive_s=600.0)
        pool.register_function(FunctionSpec(name="f", profile=profile()))
        pool.submit("f")
        sim.run_until(60.0)
        pool.submit("f")
        sim.run_until(120.0)
        assert pool.cold_starts == 1
        assert pool.warm_starts == 1
        assert not results[1][1].cold

    def test_keepalive_expiry_causes_second_cold_start(self):
        # Wang et al. [45]: idle VMs die after the keep-alive window.
        sim, pool, results = self._pool(keepalive_s=600.0)
        pool.register_function(FunctionSpec(name="f", profile=profile()))
        pool.submit("f")
        sim.run_until(700.0)  # past keep-alive
        assert pool.live_containers("f") == 0
        pool.submit("f")
        sim.run_until(800.0)
        assert pool.cold_starts == 2

    def test_idle_memory_reserved_during_keepalive(self):
        sim, pool, _ = self._pool(keepalive_s=600.0,
                                  container_memory_mb=512.0)
        pool.register_function(FunctionSpec(name="f", profile=profile()))
        pool.submit("f")
        sim.run_until(100.0)  # finished but kept warm
        assert pool.memory_reserved_mb == 512.0

    def test_static_concurrency_limit_rejects(self):
        # §1.1: a too-low static limit causes errors under load.
        sim, pool, results = self._pool(default_concurrency_limit=2)
        pool.register_function(FunctionSpec(name="f",
                                            profile=profile(exec_s=100.0)))
        for _ in range(5):
            pool.submit("f")
        assert pool.rejections == 3
        rejected = [r for _, r in results if r.rejected]
        assert len(rejected) == 3

    def test_memory_capacity_rejects(self):
        sim = Simulator(seed=2)
        pool = ContainerPool(sim, capacity_cores=64,
                             capacity_memory_mb=1024.0,
                             params=ContainerPoolParams(
                                 container_memory_mb=512.0))
        pool.register_function(FunctionSpec(name="f",
                                            profile=profile(exec_s=100.0)))
        pool.submit("f")
        pool.submit("f")
        pool.submit("f")
        assert pool.rejections == 1

    def test_utilization_low_with_sparse_calls(self):
        # The baseline's idle keep-alive yields low CPU utilization.
        sim, pool, _ = self._pool()
        pool.register_function(FunctionSpec(name="f", profile=profile()))
        pool.submit("f")
        sim.run_until(600.0)
        assert pool.utilization() < 0.05

    def test_unregistered_function_raises(self):
        sim, pool, _ = self._pool()
        with pytest.raises(KeyError):
            pool.submit("ghost")

    def test_back_to_back_runs_identical(self):
        # Regression: ids used to come from a module-level counter, so
        # a second run in the same process numbered containers
        # differently from a fresh process.  Two identical runs must
        # now match exactly.
        def run():
            sim, pool, results = self._pool(sim=Simulator(seed=7))
            pool.register_function(FunctionSpec(name="f", profile=profile()))
            pool.register_function(FunctionSpec(name="g", profile=profile()))
            for _ in range(3):
                pool.submit("f")
                pool.submit("g")
            sim.run_until(60.0)
            ids = sorted(c.container_id
                         for cs in pool._containers.values() for c in cs)
            timings = [(f, r.started_at, r.finished_at, r.cold)
                       for f, r in results]
            return ids, timings

        first, second = run(), run()
        assert first == second
        # Ids restart from 1 for every pool, never a process-wide stream.
        assert first[0][0] == 1
