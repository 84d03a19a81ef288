"""Tests for WorkerLB power-of-two dispatch and the Locality Optimizer."""

import math
import random
from array import array

import pytest

from repro.cluster import MachineSpec
from repro.core import (
    CodeVersion,
    ConfigStore,
    FunctionCall,
    LocalityOptimizer,
    LocalityParams,
    Worker,
    WorkerArrays,
    WorkerLB,
    WorkerParams,
)
from repro.core.call import CallIdAllocator
from repro.core.elastic import ElasticWorker
from repro.sim import Simulator
from repro.workloads import (
    Criticality,
    FunctionSpec,
    LogNormal,
    QuotaType,
    ResourceProfile,
)


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


class TestSpeedOneCpuBound:
    """The probe loop refuses a row without entering ``Worker.execute``
    only where ``execute`` itself would refuse, and without side effects
    beyond the refusal count."""

    #: Mixed hardware in one store: the bound must read each row's own
    #: core speed and budget.  A factor of 1.0 makes budgets whole
    #: numbers, so CPU-bound loads (exactly 1.0 each) tie with them.
    MACHINES = (MachineSpec(cores=1, core_mips=500, threads=4),
                MachineSpec(cores=2, core_mips=1000, threads=8),
                MachineSpec(cores=4, core_mips=2500, threads=16))
    PARAMS = (WorkerParams(),
              WorkerParams(cpu_admission_factor=1.0),
              WorkerParams(cpu_admission_factor=1.0,
                           background_admission_fraction=0.5))

    def _pool(self, sim):
        store = WorkerArrays()
        workers = []
        for i in range(12):
            kind = ElasticWorker if i % 4 == 3 else Worker
            workers.append(kind(
                sim, f"w{i}", "r", machine=self.MACHINES[i % 3],
                params=self.PARAMS[(i // 3) % 3], arrays=store))
        return store, workers

    @staticmethod
    def _call(sim, rnd, drawn):
        spec = FunctionSpec(
            name=f"f{rnd.randrange(6)}",
            quota_type=rnd.choice(tuple(QuotaType)),
            criticality=rnd.choice(tuple(Criticality)),
            isolation_level=rnd.choice((0, 0, 0, 1)),
            profile=profile())
        resources = None
        if drawn:
            exec_s = rnd.choice((0.05, 0.5, 2.0, 20.0))
            if rnd.random() < 0.6:
                # CPU-bound at least on the slowest rows.
                cpu = 500 * exec_s * rnd.choice((1, 1, 2, 5.5))
            else:
                cpu = rnd.uniform(1.0, 400.0) * exec_s
            resources = (cpu, rnd.choice((8.0, 64.0, 512.0)), exec_s)
        return FunctionCall(spec=spec, submit_time=sim.now,
                            start_time=sim.now, region_submitted="r",
                            source_level=rnd.choice((0, 0, 0, 2)),
                            call_id=_ids.allocate(), resources=resources)

    @staticmethod
    def _row(store, i):
        return store.running[i], store.cpu_load[i], store.mem_mb[i]

    @staticmethod
    def _probe(lb, idx, call):
        # A one-row pool and no spill: dispatch probes exactly row idx
        # and draws nothing.
        lb._rebuild_groups()
        lb._groups = {0: array("l", [idx])}
        lb._all_idx = range(1)
        return lb.dispatch(call)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bound_refuses_only_what_execute_refuses(self, seed,
                                                     monkeypatch):
        entered = []
        real_execute = Worker.execute

        def counting_execute(self, call):
            entered.append(call.call_id)
            return real_execute(self, call)

        monkeypatch.setattr(Worker, "execute", counting_execute)
        sim = Simulator(seed=seed)
        rnd = random.Random(seed)
        store, workers = self._pool(sim)
        lb = WorkerLB(sim, "r", store, group_of_function=lambda f: 0,
                      n_groups_fn=lambda: 1)
        fired = ties_admitted = isolation_over_budget = 0
        for _ in range(3000):
            roll = rnd.random()
            w = rnd.choice(workers)
            if roll < 0.03:
                sim.run_until(sim.now + rnd.uniform(0.0, 40.0))
            elif roll < 0.05:
                # JIT ramps: an unseeded restart after an outage, or
                # after a code update.
                if rnd.random() < 0.5:
                    w.fail()
                    w.recover()
                else:
                    w.adopt_version(CodeVersion(
                        version=w.code_version.version + 1,
                        released_at=sim.now), seeded=False)
            elif roll < 0.07:
                if isinstance(w, ElasticWorker) and w.available:
                    w.reclaim()
                elif isinstance(w, ElasticWorker):
                    w.grant()
                elif w.online:
                    w.fail()
                else:
                    w.recover()
            elif roll < 0.3:
                # Load a row directly (CPU-bound on the whole-number
                # budgets, so their loads stay whole and ties occur).
                call = self._call(sim, rnd, drawn=True)
                if w.params.cpu_admission_factor == 1.0:
                    call.resources = (5000.0 * 20.0, 8.0, 20.0)
                call.source_level = 0
                real_execute(w, call)
            else:
                call = self._call(sim, rnd, drawn=rnd.random() < 0.9)
                i = w._index
                before = self._row(store, i)
                rejections = w.admission_rejections
                n_entered = len(entered)
                res = call.resources
                c1 = None
                if res is not None:
                    cpu_s = res[0] / w.machine.core_mips
                    c1 = 1.0 if cpu_s >= res[2] else cpu_s / res[2]
                tie = (c1 is not None and
                       store.cpu_load[i] + c1 == w._cpu_budget)
                over = (c1 is not None and
                        store.cpu_load[i] + c1 > w._cpu_budget)
                placed = self._probe(lb, i, call)
                if len(entered) == n_entered:
                    fired += 1
                    assert res is not None
                    assert not placed
                    assert w.admission_rejections == rejections + 1
                    assert self._row(store, i) == before
                    assert not real_execute(w, call), \
                        "the bound refused a call execute admits"
                    assert self._row(store, i) == before
                elif placed and tie and call.worker_name == w.name:
                    ties_admitted += 1
                elif over and call.source_level > call.spec.isolation_level:
                    isolation_over_budget += 1
                    assert placed
        # The run covers the cases a wrong bound would get wrong: a
        # ">=" refuses the ties execute admits, and a bound without the
        # isolation guard pre-empts the terminal isolation denial.
        assert fired > 200
        assert ties_admitted > 0
        assert isolation_over_budget > 0


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
