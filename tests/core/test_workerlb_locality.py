"""Tests for WorkerLB power-of-two dispatch and the Locality Optimizer."""

import math

import pytest

from repro.cluster import MachineSpec
from repro.core import (
    ConfigStore,
    FunctionCall,
    LocalityOptimizer,
    LocalityParams,
    Worker,
    WorkerArrays,
    WorkerLB,
)
from repro.core.call import CallIdAllocator
from repro.sim import Simulator
from repro.workloads import FunctionSpec, LogNormal, ResourceProfile


def profile(mem=64.0):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=0.0, sigma=0.0),
        memory_mb=LogNormal(mu=math.log(mem), sigma=0.0),
        exec_time_s=LogNormal(mu=0.0, sigma=0.0))


_ids = CallIdAllocator()


def make_call(sim, name="f", mem=64.0, ephemeral=False):
    spec = FunctionSpec(name=name, profile=profile(mem), ephemeral=ephemeral)
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r", call_id=_ids.allocate())


def make_workers(sim, n, threads=4):
    """``n`` workers born in one store, the way a region's pool is."""
    machine = MachineSpec(cores=4, core_mips=1000, threads=threads)
    store = WorkerArrays()
    return [Worker(sim, f"w{i}", "r", machine=machine, arrays=store)
            for i in range(n)]


class TestWorkerLB:
    def _lb(self, sim, workers, n_groups=1, group_fn=None):
        return WorkerLB(sim, "r", workers[0]._arrays,
                        group_of_function=group_fn or (lambda f: 0),
                        n_groups_fn=lambda: n_groups)

    def test_dispatch_reaches_a_worker(self):
        sim = Simulator(seed=1)
        workers = make_workers(sim, 4)
        lb = self._lb(sim, workers)
        assert lb.dispatch(make_call(sim))
        assert sum(w.running_count for w in workers) == 1

    def test_prefers_less_loaded_worker(self):
        sim = Simulator(seed=2)
        workers = make_workers(sim, 2, threads=16)
        lb = self._lb(sim, workers)
        # Saturate worker 0 with long calls.
        for i in range(8):
            workers[0].execute(make_call(sim, name=f"pre{i}"))
        placed = []
        for i in range(10):
            call = make_call(sim, name=f"new{i}")
            lb.dispatch(call)
            placed.append(call.worker_name)
        assert placed.count("w1") >= 8

    def test_group_restriction(self):
        sim = Simulator(seed=3)
        workers = make_workers(sim, 6)
        for i, w in enumerate(workers):
            w.locality_group = i % 2
        lb = self._lb(sim, workers, n_groups=2,
                      group_fn=lambda f: 1)
        for i in range(6):
            lb.dispatch(make_call(sim, name=f"f{i}"))
        even = [w for i, w in enumerate(workers) if w.locality_group == 0]
        odd = [w for i, w in enumerate(workers) if w.locality_group == 1]
        assert sum(w.running_count for w in even) == 0
        assert sum(w.running_count for w in odd) == 6

    def test_all_full_returns_false(self):
        sim = Simulator(seed=4)
        workers = make_workers(sim, 2, threads=1)
        lb = self._lb(sim, workers)
        assert lb.dispatch(make_call(sim, name="a"))
        assert lb.dispatch(make_call(sim, name="b"))
        assert not lb.dispatch(make_call(sim, name="c"))
        assert lb.reject_count == 1

    def test_empty_group_falls_back_to_pool(self):
        sim = Simulator(seed=5)
        workers = make_workers(sim, 2)
        for w in workers:
            w.locality_group = 0
        lb = self._lb(sim, workers, n_groups=4, group_fn=lambda f: 3)
        assert lb.dispatch(make_call(sim))

    def test_no_workers_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            WorkerLB(sim, "r", WorkerArrays(), lambda f: 0, lambda: 1)

    def test_free_threads_follow_dispatch(self):
        sim = Simulator(seed=6)
        workers = make_workers(sim, 2, threads=4)
        lb = self._lb(sim, workers)
        assert lb.free_threads() == 8
        lb.dispatch(make_call(sim))
        assert lb.free_threads() == 7


class TestLocalityOptimizer:
    def _optimizer(self, sim, enabled=True, n_groups=4):
        store = ConfigStore(sim, propagation_delay_s=0.0)
        return LocalityOptimizer(sim, store,
                                 LocalityParams(n_groups=n_groups),
                                 enabled=enabled)

    def test_disabled_single_group(self):
        sim = Simulator()
        opt = self._optimizer(sim, enabled=False)
        opt.register_function(FunctionSpec(name="f", profile=profile()))
        assert opt.n_groups == 1
        assert opt.group_of("f") == 0

    def test_memory_hungry_functions_spread(self):
        # §4.5.2: memory-hungry functions go to different groups.
        sim = Simulator()
        opt = self._optimizer(sim, n_groups=4)
        hogs = [FunctionSpec(name=f"hog{i}", profile=profile(mem=8192.0))
                for i in range(4)]
        for spec in hogs:
            opt.register_function(spec)
        groups = {opt.group_of(s.name) for s in hogs}
        assert len(groups) == 4

    def test_ephemeral_round_robin(self):
        # §4.5.2: Morphing-style ephemeral functions round-robin.
        sim = Simulator()
        opt = self._optimizer(sim, n_groups=3)
        specs = [FunctionSpec(name=f"m{i}", profile=profile(),
                              ephemeral=True) for i in range(6)]
        for spec in specs:
            opt.register_function(spec)
        groups = [opt.group_of(s.name) for s in specs]
        assert groups == [0, 1, 2, 0, 1, 2]

    def test_workers_spread_over_groups(self):
        sim = Simulator()
        opt = self._optimizer(sim, n_groups=2)
        workers = make_workers(sim, 6)
        opt.register_rows(workers[0]._arrays, range(len(workers)))
        counts = [sum(1 for w in workers if w.locality_group == g)
                  for g in range(2)]
        assert counts == [3, 3]

    def test_reassign_balances_memory(self):
        sim = Simulator()
        opt = self._optimizer(sim, n_groups=2)
        for i in range(8):
            opt.register_function(
                FunctionSpec(name=f"f{i}", profile=profile(mem=100.0)))
        opt.reassign()
        loads = opt._group_memory_loads()
        assert max(loads) - min(loads) <= 100.0

    def test_rebalance_moves_worker_to_hot_group(self):
        sim = Simulator(seed=9)
        opt = self._optimizer(sim, n_groups=2)
        workers = make_workers(sim, 4, threads=4)
        opt.register_rows(workers[0]._arrays, range(len(workers)))
        # Load only group 0's workers.
        for w in workers:
            if w.locality_group == 0:
                for i in range(3):
                    w.execute(make_call(sim, name=f"x{i}"))
        before = sum(1 for w in workers if w.locality_group == 0)
        opt.rebalance_workers()
        after = sum(1 for w in workers if w.locality_group == 0)
        assert after == before + 1
        assert opt.worker_moves == 1

    def test_register_idempotent(self):
        sim = Simulator()
        opt = self._optimizer(sim)
        spec = FunctionSpec(name="f", profile=profile())
        opt.register_function(spec)
        g = opt.group_of("f")
        opt.register_function(spec)
        assert opt.group_of("f") == g
