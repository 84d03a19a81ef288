"""Cold workers are rows: a platform builds a worker's view on first access.

``XFaaS`` fills each region's worker columns in bulk and builds a
``Worker`` view only when something first needs it: a WorkerLB probe,
``workers_by_region[r][i]``, ``all_workers``, failure injection or a
code push.  These tests pin that views stay unbuilt until then, that
the built views are exactly the accessed rows, and that a run is bit
for bit the run whose views were all built up front.  The runs that
grow a region's store mid-run, push code or fail workers are also
pinned to fixed digests, plain and sanitized.
"""

import math

import pytest

from repro import PlatformParams, Simulator, XFaaS, build_topology
from repro.cluster import MachineSpec, size_topology_for_utilization
from repro.core import (
    FunctionCall,
    LocalityOptimizer,
    LocalityParams,
    RolloutParams,
    SchedulerParams,
    Worker,
)
from repro.scenarios import build_dayrun, build_fleetrun
from repro.workloads import (
    ArrivalGenerator,
    ConstantRate,
    FunctionSpec,
    LogNormal,
    QuotaType,
    ResourceProfile,
    build_population,
    estimate_demand_minstr,
)


def _built(platform):
    """(region, row) of every built view."""
    return {(r, w._index) for r, lb in platform.workerlbs.items()
            for w in lb.arrays.built_views()}


def _digests(platform):
    return platform.traces.digest(), platform.metrics.digest()


def _build_views_up_front(monkeypatch):
    """Make every XFaaS build all of its views when it is constructed."""
    init = XFaaS.__init__

    def forcing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert len(self.all_workers) > 0
        assert all(None not in lb.arrays.views
                   for lb in self.workerlbs.values())
    monkeypatch.setattr(XFaaS, "__init__", forcing_init)


def _elastic_run(sanitize=False):
    sim = Simulator(seed=3, sanitize=sanitize)
    topology = build_topology(n_regions=2, workers_per_unit=2)
    platform = XFaaS(sim, topology, PlatformParams(
        memory_sample_interval_s=20.0, distinct_window_s=60.0))
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
    assert sum(w.calls_started
               for w in platform.workers_by_region[region][-2:]) > 0
    return platform


def _code_push_run(sanitize=False):
    """A fleetrun whose deployer pushes twice, building every view."""
    rollout = RolloutParams(push_interval_s=200.0, phase1_duration_s=40.0,
                            phase2_duration_s=60.0, distribution_delay_s=20.0)
    run = build_fleetrun(300, horizon_s=600.0, sanitize=sanitize, overrides={
        "start_code_deployer": True, "rollout": rollout})
    assert run.platform.deployer.rollouts_completed >= 2
    return run.platform


def _fault_run(sanitize=False):
    """A 1k fleetrun that fails and recovers a probed and a cold row."""
    run = build_fleetrun(1000, run_sim=False, sanitize=sanitize)
    platform, sim = run.platform, run.sim
    region = platform.topology.region_names[1]
    workers = platform.workers_by_region[region]
    for at, row in ((90.0, 0), (150.0, len(workers) - 1)):
        sim.call_at(at, lambda row=row: workers[row].fail())
        sim.call_at(at + 60.0, lambda row=row: workers[row].recover())
    sim.run_until(run.horizon_s)
    return platform


RUNS = {
    "quick-dayrun": lambda: build_dayrun(horizon_s=600.0).platform,
    "fleetrun-1k": lambda: build_fleetrun(1000).platform,
    "elastic-pool": _elastic_run,
    "code-deployer": _code_push_run,
    "fail-recover": _fault_run,
}

#: (trace digest, metrics digest) of the runs above that register an
#: elastic pool mid-run, push code to every worker, or fail and recover
#: workers.  Pinned from the tree where elastic workers were built in a
#: private store and adopted into the region's.
PINNED = {
    "elastic-pool": (
        "b1a2069ca2f920d87d53045f5da05cfc0ebd16645f71eaf6796ea4b576ba480f",
        "b05c82ca1629d4c3a84e793b3823b363d9ae65bca65e0abdebb4556e610fe7a5"),
    "code-deployer": (
        "e60b666e8ee5624c9a4f90e80a42f48285f206ff576a883140c807380fd73970",
        "c366dd91d34444bb4215693050c60947d94154aa13c8ad6b0347968a119ed1b5"),
    "fail-recover": (
        "10d2245cb2213facd3b1011482d80e959ca595e5c5bb71202da15174dfa7177f",
        "a9be5e71876fd2269d45a8ef55aa38893702bb8dbe85cb5479b29a6ced271350"),
}


class TestViewsBuiltOnFirstAccess:
    def test_unrun_fleet_has_no_views(self):
        platform = build_fleetrun(10_000, run_sim=False).platform
        assert sum(len(lb.arrays) for lb in platform.workerlbs.values()) \
            == 10_000
        assert _built(platform) == set()

    def test_built_views_are_probed_or_touched_rows(self, monkeypatch):
        probed = set()
        execute = Worker.execute

        def recording(self, call):
            probed.add((self.region, self._index))
            return execute(self, call)
        monkeypatch.setattr(Worker, "execute", recording)
        # A short 1k fleetrun (the full one probes every worker) whose
        # last row of each region is failed and recovered.
        run = build_fleetrun(1000, horizon_s=60.0, run_sim=False)
        platform, sim = run.platform, run.sim
        touched = set()
        for region, workers in platform.workers_by_region.items():
            row = len(workers) - 1
            touched.add((region, row))
            sim.call_at(20.0, lambda w=workers, r=row: w[r].fail())
            sim.call_at(40.0, lambda w=workers, r=row: w[r].recover())
        sim.run_until(run.horizon_s)
        assert 0 < len(probed) < 900
        assert _built(platform) == probed | touched

    def test_access_builds_one_view_with_its_columns(self):
        platform = build_fleetrun(1000, run_sim=False).platform
        region = platform.topology.region_names[2]
        store = platform.workerlbs[region].arrays
        w = platform.workers_by_region[region][7]
        assert _built(platform) == {(region, 7)}
        assert w is store.view(7) is platform.workers_by_region[region][7]
        assert w.name == f"{region}/default/w007"
        assert w.locality_group == store.group[7]
        assert w.memory_in_use_mb == store.mem_mb[7]
        assert w.on_finish == platform.schedulers[region].on_call_finished
        assert len(platform.all_workers) == 1000
        assert len(_built(platform)) == 1000


class TestLazyEqualsEager:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_digests_match_views_built_up_front(self, name, monkeypatch):
        lazy = RUNS[name]()
        with monkeypatch.context() as m:
            _build_views_up_front(m)
            eager = RUNS[name]()
        assert _digests(lazy) == _digests(eager)


class TestPinnedDigests:
    @pytest.mark.parametrize("sanitize", [False, True],
                             ids=["plain", "sanitized"])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_run_matches_pinned_digests(self, name, sanitize):
        assert _digests(RUNS[name](sanitize=sanitize)) == PINNED[name]


class TestGroupIndexFollowsGroupColumn:
    def test_locality_group_write_reindexes_next_dispatch(self):
        run = build_fleetrun(100, horizon_s=30.0)
        platform = run.platform
        region = platform.topology.region_names[0]
        lb = platform.workerlbs[region]
        worker = platform.workers_by_region[region][0]
        n_groups = platform.locality_optimizer.n_groups
        old = worker.locality_group
        new = (old + 1) % n_groups
        assert 0 in lb._groups[old % n_groups]
        worker.locality_group = new
        spec = platform.spec(platform.functions()[0])
        now = run.sim.now
        lb.dispatch(FunctionCall(spec, now, now, region, call_id=10**9))
        assert 0 in lb._groups[new]
        assert 0 not in lb._groups[old % n_groups]


def _reference_rebalance(self):
    """The per-view rebalance: views in registration order."""
    if not self.enabled or not self._n_workers:
        return
    workers = [store.view(i) for store, rows in self._blocks for i in rows]
    groups = {}
    for w in workers:
        groups.setdefault(w.locality_group % self.n_groups, []).append(w)
    loads = {}
    for g in range(self.n_groups):
        members = groups.get(g, [])
        loads[g] = (sum(w.load_score() for w in members) / len(members)
                    if members else 0.0)
    hottest = max(loads, key=lambda g: loads[g])
    coldest = min(loads, key=lambda g: loads[g])
    if loads[coldest] <= 0:
        ratio = float("inf") if loads[hottest] > 0 else 1.0
    else:
        ratio = loads[hottest] / loads[coldest]
    donors = groups.get(coldest, [])
    if ratio >= self.params.rebalance_ratio and len(donors) > 1:
        mover = min(donors, key=lambda w: w.load_score())
        mover.locality_group = hottest
        self.worker_moves += 1


def _rebalancing_run(seed=11, horizon_s=480.0):
    """A saturated two-region run that rebalances every 20 s, with an
    elastic pool registered mid-run and a failed worker."""
    sim = Simulator(seed=seed)
    population = build_population(n_functions=20, total_rate=6.0,
                                  opportunistic_fraction=0.6)
    for load in population.loads:
        load.shape = ConstantRate(1.0)
        load.shape_mean = 1.0
    machine = MachineSpec(cores=2, core_mips=500, threads=48)
    demand = estimate_demand_minstr(population, core_mips=machine.core_mips)
    topology = size_topology_for_utilization(
        demand, target_utilization=0.9, n_regions=2, machine_spec=machine)
    platform = XFaaS(sim, topology, PlatformParams(
        scheduler=SchedulerParams(poll_interval_s=2.0, buffer_capacity=500,
                                  runq_capacity=200),
        locality=LocalityParams(n_groups=3, rebalance_interval_s=20.0,
                                rebalance_ratio=1.05)))
    for spec in population.specs:
        platform.register_function(spec)
    ArrivalGenerator(sim, population, platform.submit_stream,
                     tick_s=10.0, stop_at=horizon_s)
    region = topology.region_names[0]
    sim.call_at(100.0, lambda: platform.workers_by_region[region][1].fail())
    sim.call_at(121.0, lambda: platform.add_elastic_pool(region, 3))
    sim.run_until(horizon_s)
    return platform


#: (trace digest, metrics digest) of ``_rebalancing_run()``, pinned
#: like ``PINNED``: every move must reach the WorkerLBs' group index.
REBALANCING_RUN_DIGESTS = (
    "0d8ac5d5ee13b8138346cd82334f6d43fa9bbae0a413872b5894bc04e11287ef",
    "cbc2c73fcc6ec96f6e45aa1cd73dfe22ed5f07cba659ed41572d7a2ede4e818d")


class TestRebalanceOnColumns:
    def test_same_mover_groups_and_epoch_as_per_view_reference(
            self, monkeypatch):
        platform = _rebalancing_run()
        with monkeypatch.context() as m:
            m.setattr(LocalityOptimizer, "rebalance_workers",
                      _reference_rebalance)
            ref = _rebalancing_run()
        opt, ref_opt = platform.locality_optimizer, ref.locality_optimizer
        assert opt.worker_moves == ref_opt.worker_moves > 0
        for region, lb in platform.workerlbs.items():
            ref_store = ref.workerlbs[region].arrays
            assert lb.arrays.group == ref_store.group
            assert lb.arrays.group_epoch == ref_store.group_epoch
        assert _digests(platform) == _digests(ref) == REBALANCING_RUN_DIGESTS
