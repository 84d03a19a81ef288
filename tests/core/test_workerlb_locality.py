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


def _scored_dispatch(lb, call):
    """``WorkerLB.dispatch`` without the draws-only refusal, frozen.

    Every draw is scored and probed in order; the speed-1 bound refuses
    inside the probe loop.  The equivalence test below runs the live
    ``dispatch`` against this copy.
    """
    arr = lb.arrays
    if arr.group_epoch != lb._epoch:
        lb._rebuild_groups()
    all_idx = lb._all_idx
    candidates = lb._groups.get(lb.group_of_function(call.spec.name)) \
        or all_idx
    getrandbits = lb._getrandbits
    running, cpu_load, mem_mb = arr.running, arr.cpu_load, arr.mem_mb
    threads, cores, memory_mb = arr.threads, arr.cores, arr.memory_mb
    views = arr.views
    flow_ok = call.source_level <= call.spec.isolation_level
    pool = candidates
    spilled = False
    while True:
        n = len(pool)
        if n == 1:
            order = [pool[0]]
        else:
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            a = pool[r]
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            b = pool[r]
            while b == a:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                b = pool[r]
            sa = max(running[a] / threads[a], cpu_load[a] / cores[a],
                     mem_mb[a] / memory_mb[a])
            sb = max(running[b] / threads[b], cpu_load[b] / cores[b],
                     mem_mb[b] / memory_mb[b])
            order = [a, b] if sa <= sb else [b, a]
            for _ in range(lb.extra_probes):
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                extra = pool[r]
                if extra not in order:
                    order.append(extra)
        for idx in order:
            worker = views[idx]
            if worker is None:
                worker = arr.view(idx)
            res = call.resources
            if res is not None and flow_ok:
                cpu_s = res[0] / worker.machine.core_mips
                c1 = 1.0 if cpu_s >= res[2] else cpu_s / res[2]
                if cpu_load[idx] + c1 > worker._cpu_budget:
                    worker.admission_rejections += 1
                    continue
            if worker.execute(call):
                lb.dispatch_count += 1
                if spilled:
                    lb.out_of_group_dispatches += 1
                return True
        if spilled or len(candidates) >= len(all_idx):
            lb.reject_count += 1
            return False
        pool = all_idx
        spilled = True


class TestDrawsOnlyRefusal:
    """``dispatch`` refuses a call that every drawn row refuses at speed
    1 from its draws alone.  Against the scored copy above it must agree
    on everything the model reads: the verdict, the RNG stream, each
    row's refusal count, which views exist, and the load columns."""

    MACHINES = TestSpeedOneCpuBound.MACHINES
    PARAMS = TestSpeedOneCpuBound.PARAMS
    #: Cold rows score high on memory from birth, so the scored order
    #: often places a call on a warm row before it reaches a cold one.
    COLD = MachineSpec(cores=2, core_mips=1000, threads=8, memory_mb=16384)

    def _world(self, seed, kinds, groups, n_groups):
        """One region pool: ``kinds`` gives each row's class ("worker",
        "elastic" or "cold", a row without a view)."""
        sim = Simulator(seed=seed)
        store = WorkerArrays(make_view=lambda s, row: Worker(
            sim, f"c{row}", "r", machine=self.COLD, arrays=s, index=row))
        for i, kind in enumerate(kinds):
            if kind == "cold":
                store.add_rows(1, self.COLD.threads, self.COLD.cores,
                               self.COLD.memory_mb,
                               WorkerParams().runtime_baseline_mb + 0.0 + 0.0)
            else:
                cls = ElasticWorker if kind == "elastic" else Worker
                w = cls(sim, f"w{i}", "r", machine=self.MACHINES[i % 3],
                        params=self.PARAMS[(i // 2) % 3], arrays=store)
                if kind == "elastic" and i % 2:
                    w.grant()
        store.set_group(slice(0, len(kinds)), array("l", groups))
        lb = WorkerLB(sim, "r", store,
                      group_of_function=lambda f: int(f[1:]) % (n_groups + 1),
                      n_groups_fn=lambda: n_groups)
        return sim, store, lb

    @staticmethod
    def _state(store, lb):
        views = store.views
        return (lb.rng._rng.getstate(),
                [w is None for w in views],
                [None if w is None else w.admission_rejections
                 for w in views],
                list(store.running), list(store.cpu_load),
                list(store.mem_mb),
                lb.dispatch_count, lb.reject_count,
                lb.out_of_group_dispatches)

    @staticmethod
    def _call_pair(sim, rnd, drawn):
        """Two identical calls, one per world."""
        call = TestSpeedOneCpuBound._call(sim, rnd, drawn)
        twin = FunctionCall(spec=call.spec, submit_time=call.submit_time,
                            start_time=call.start_time,
                            region_submitted="r",
                            source_level=call.source_level,
                            call_id=call.call_id, resources=call.resources)
        return call, twin

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scored_dispatch(self, seed, monkeypatch):
        entered = []
        real_execute = Worker.execute

        def counting_execute(self, call):
            entered.append(call.call_id)
            return real_execute(self, call)

        monkeypatch.setattr(Worker, "execute", counting_execute)
        rnd = random.Random(seed)
        multi_row_bound_only = cold_draws = placed = 0
        for _ in range(12):
            n_rows = rnd.randint(2, 6)
            kinds = [rnd.choice(("worker", "worker", "worker", "elastic",
                                 "cold"))
                     for _ in range(n_rows)]
            n_groups = rnd.randint(1, 3)
            groups = [rnd.randrange(n_groups) for _ in range(n_rows)]
            world_seed = rnd.randrange(1 << 30)
            sim_a, store_a, lb_a = self._world(world_seed, kinds, groups,
                                               n_groups)
            sim_b, store_b, lb_b = self._world(world_seed, kinds, groups,
                                               n_groups)
            refused = []
            for _ in range(200):
                roll = rnd.random()
                if roll < 0.04:
                    t = sim_a.now + rnd.uniform(0.0, 10.0)
                    sim_a.run_until(t)
                    sim_b.run_until(t)
                elif roll < 0.15:
                    # Saturate a built row's CPU with 20 s CPU-bound
                    # calls, as dayrun's long calls do.
                    row = rnd.randrange(n_rows)
                    for _ in range(rnd.randint(1, 6)):
                        call_a, call_b = self._call_pair(sim_a, rnd,
                                                         drawn=True)
                        for store, call in ((store_a, call_a),
                                            (store_b, call_b)):
                            w = store.views[row]
                            if w is not None:
                                call.source_level = 0
                                call.resources = (5000.0 * 20.0, 8.0, 20.0)
                                real_execute(w, call)
                elif roll < 0.18:
                    # Take a built row offline or back, or flip an
                    # elastic row's availability.
                    row = rnd.randrange(n_rows)
                    for store in (store_a, store_b):
                        w = store.views[row]
                        if w is None:
                            continue
                        if isinstance(w, ElasticWorker) and w.available:
                            w.reclaim()
                        elif isinstance(w, ElasticWorker):
                            w.grant()
                        elif w.online:
                            w.fail()
                        else:
                            w.recover()
                else:
                    if refused and rnd.random() < 0.7:
                        # Re-dispatch a refused call: its resources are
                        # drawn, as on every scheduler retry.
                        call_a, call_b = refused.pop(
                            rnd.randrange(len(refused)))
                    else:
                        call_a, call_b = self._call_pair(
                            sim_a, rnd, drawn=rnd.random() < 0.5)
                    drawn = call_a.resources is not None
                    cold_before = store_a.views.count(None)
                    n_entered = len(entered)
                    ok_a = lb_a.dispatch(call_a)
                    probed = len(entered) > n_entered
                    ok_b = _scored_dispatch(lb_b, call_b)
                    assert ok_a == ok_b
                    assert call_a.resources == call_b.resources
                    assert call_a.worker_name == call_b.worker_name
                    assert self._state(store_a, lb_a) == \
                        self._state(store_b, lb_b)
                    built = store_a.views.count(None) < cold_before
                    cold_draws += built
                    if ok_a:
                        placed += 1
                    else:
                        refused.append((call_a, call_b))
                        # Refused by the bound alone from a pool of two
                        # rows or more: the draws-only branch skipped
                        # the scores of real two-choices draws.
                        pool = lb_a._groups.get(lb_a.group_of_function(
                            call_a.spec.name)) or lb_a._all_idx
                        multi_row_bound_only += (
                            drawn and not probed and not built
                            and len(pool) >= 2)
        # The run reaches the draws-only branch on multi-row pools, the
        # scored path that builds a cold row's view, and placements.
        assert multi_row_bound_only > 30
        assert cold_draws > 0
        assert placed > 50


class TestLocalityOptimizer:
    def _optimizer(self, sim, enabled=True, n_groups=4):
        store = ConfigStore(sim, propagation_delay_s=0.0)
        return LocalityOptimizer(sim, store,
                                 LocalityParams(n_groups=n_groups),
                                 enabled=enabled)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_double_start_rejected(self, enabled):
        sim = Simulator()
        opt = self._optimizer(sim, enabled=enabled)
        opt.start()
        with pytest.raises(RuntimeError):
            opt.start()
        # Stopped, it may start again, with one task per loop.
        opt.stop()
        opt.start()
        assert len(opt._tasks) == (2 if enabled else 0)

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
