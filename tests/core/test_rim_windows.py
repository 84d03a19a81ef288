"""RIM's active-row utilization windows equal the every-worker windows.

``Rim.sample`` takes windows only for the rows in each store's active
set.  These tests drive the cases that could break that and compare
every per-region and fleet gauge point, bit for bit, against a
brute-force reference that takes every registered worker's window and
sums left to right.
"""

import math

import pytest

from repro import PlatformParams, Simulator, XFaaS
from repro.cluster import MachineSpec, size_topology_for_utilization
from repro.core import FunctionCall, Rim, SchedulerParams, Worker, WorkerArrays
from repro.core.call import CallIdAllocator
from repro.metrics import MetricsRegistry
from repro.workloads import (
    ArrivalGenerator,
    ConstantRate,
    FunctionSpec,
    LogNormal,
    ResourceProfile,
    build_population,
    estimate_demand_minstr,
)


def _registered(rim, region):
    """Every worker registered in ``region``, in registration order."""
    rows = sorted((pos, row, store) for store, pos_of
                  in rim._positions_by_region[region].items()
                  for row, pos in enumerate(pos_of) if pos >= 0)
    return [store.view(row) for _, row, store in rows]


def _brute_force_sample(self):
    """The per-worker sampler: every registered worker, every window."""
    now = self.sim.now
    total_busy = 0.0
    total_workers = 0
    for region in sorted(self._count_by_region):
        workers = _registered(self, region)
        if not workers:
            continue
        busy = 0.0
        for w in workers:
            busy += w.take_utilization_window()
        self._region_util[region] = busy / len(workers)
        self._region_gauges[region].set(now, busy / len(workers))
        total_busy += busy
        total_workers += len(workers)
    if total_workers:
        self._fleet_util = total_busy / total_workers
        self._fleet_gauge.set(now, self._fleet_util)


def _bits(metrics):
    """Every utilization gauge point as exact float hex strings."""
    return {name: [(t.hex(), v.hex()) for t, v in snap["points"]]
            for name, snap in metrics.snapshot()["gauges"].items()
            if name.endswith("utilization")}


def _call(sim, ids, cpu, exec_s, name="f"):
    spec = FunctionSpec(name=name, profile=ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(64.0), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0)))
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r0", call_id=ids.allocate())


def _rig(monkeypatch, reference):
    """Two regions: r0 shares one store, r1 uses private single-row stores."""
    if reference:
        monkeypatch.setattr(Rim, "sample", _brute_force_sample)
    sim = Simulator(seed=5)
    metrics = MetricsRegistry()
    rim = Rim(sim, metrics, sample_interval_s=10.0)
    machine = MachineSpec(cores=2, core_mips=1000, threads=16)
    shared = WorkerArrays()
    r0 = [Worker(sim, f"r0/w{i}", "r0", machine=machine, arrays=shared)
          for i in range(5)]
    r1 = [Worker(sim, f"r1/w{i}", "r1", machine=machine) for i in range(3)]
    rim.register_workers("r0", r0)
    rim.register_workers("r1", r1)
    ids = CallIdAllocator()
    direct = []

    def run(w, cpu, exec_s, name="f"):
        return lambda: w.execute(_call(sim, ids, cpu, exec_s, name))

    def take(w):
        return lambda: direct.append(w.take_utilization_window().hex())

    # r0/w0 stays idle throughout.
    # r0/w1 is busy across the windows at 10, 20, 30 and 40.
    sim.call_at(3.0, run(r0[1], 700.0, 35.0))
    # r0/w2 starts exactly at the t=20 sample instant, before it fires;
    # r0/w3 at the same instant, after it (scheduled once t=10 passed).
    sim.call_at(20.0, run(r0[2], 500.0, 4.0))
    sim.call_at(15.0, lambda: sim.call_at(20.0, run(r0[3], 500.0, 4.0)))
    # r0/w4 fails mid-window with a call running, recovers, runs again.
    sim.call_at(41.0, run(r0[4], 900.0, 20.0))
    sim.call_at(47.0, r0[4].fail)
    sim.call_at(52.0, r0[4].recover)
    sim.call_at(55.0, run(r0[4], 300.0, 3.0))
    # Overlapping fractional loads leave a float residue on r0/w2.
    sim.call_at(61.0, run(r0[2], 100.0, 1.0, "a"))
    sim.call_at(61.2, run(r0[2], 200.0, 1.0, "b"))
    # Private-store region r1.
    sim.call_at(12.0, run(r1[0], 800.0, 4.0))
    sim.call_at(33.0, run(r1[2], 400.0, 30.0))
    # Direct callers: an idle window taken after a sample, a busy window
    # taken mid-window, and one on a shared-store row before it runs.
    sim.call_at(27.0, take(r1[1]))
    sim.call_at(29.0, run(r1[1], 600.0, 3.0))
    sim.call_at(31.0, take(r1[1]))
    sim.call_at(15.5, take(r0[0]))
    sim.call_at(16.0, run(r0[0], 300.0, 2.0))
    # A worker built into the shared store after it was sampled: its
    # first window starts at 0.0, not at the store's last sample.
    late = []

    def add_late():
        late.append(Worker(sim, "r0/late", "r0", machine=machine,
                           arrays=shared))
        rim.register_workers("r0", late)
    sim.call_at(35.0, add_late)
    sim.call_at(38.0, lambda: late[0].execute(_call(sim, ids, 500.0, 5.0)))
    rim.start()
    sim.run_until(100.0)
    return metrics, rim, r0 + r1 + late, direct


class TestActiveRowWindows:
    def test_gauges_match_brute_force_bit_for_bit(self, monkeypatch):
        metrics, rim, workers, direct = _rig(monkeypatch, reference=False)
        with monkeypatch.context() as m:
            ref_metrics, ref_rim, _, ref_direct = _rig(m, reference=True)
        got, want = _bits(metrics), _bits(ref_metrics)
        assert set(want) == {"fleet.utilization", "region.r0.utilization",
                             "region.r1.utilization"}
        assert got == want
        assert direct == ref_direct
        assert rim.fleet_utilization() == ref_rim.fleet_utilization()
        # The scenario really produced non-trivial windows.
        assert len(want["region.r0.utilization"]) > 5
        assert len(want["region.r1.utilization"]) > 3

    def test_active_set_keeps_residues_and_drops_idle_rows(self, monkeypatch):
        _, _, workers, _ = _rig(monkeypatch, reference=False)
        # r0/w2 ends with nothing running but a float residue of load,
        # which keeps accruing busy time, so its row must stay active.
        residue = workers[2]
        assert residue.running_count == 0
        assert residue.cpu.load != 0.0
        assert residue._index in residue._arrays.active
        idle = [w for w in workers if w.cpu.load == 0.0]
        assert idle
        assert all(w._index not in w._arrays.active for w in idle)

    def test_duplicate_registration_rejected(self):
        sim = Simulator(seed=1)
        rim = Rim(sim, MetricsRegistry())
        w = Worker(sim, "w", "r0")
        rim.register_workers("r0", [w])
        with pytest.raises(ValueError, match="already registered"):
            rim.register_workers("r0", [w])


def _mini_platform(seed=11, horizon_s=480.0):
    """A saturated two-region run with an elastic pool added mid-run and
    a worker failure/recovery, returning the platform."""
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
        rim_sample_interval_s=30.0, memory_sample_interval_s=30.0))
    for spec in population.specs:
        platform.register_function(spec)
    ArrivalGenerator(sim, population, platform.submit_stream,
                     tick_s=10.0, stop_at=horizon_s)
    region = topology.region_names[0]
    victim = platform.workers_by_region[region][0]
    sim.call_at(100.0, victim.fail)
    sim.call_at(130.0, victim.recover)
    sim.call_at(121.0, lambda: platform.add_elastic_pool(region, 3))
    sim.run_until(horizon_s)
    return platform


class TestPlatformWindows:
    def test_elastic_pool_mid_run_matches_brute_force(self, monkeypatch):
        platform = _mini_platform()
        with monkeypatch.context() as m:
            m.setattr(Rim, "sample", _brute_force_sample)
            ref = _mini_platform()
        elastic = platform.workers_by_region[
            platform.topology.region_names[0]][-3:]
        assert sum(w.calls_started for w in elastic) > 0
        assert _bits(platform.metrics) == _bits(ref.metrics)
        assert platform.metrics.digest() == ref.metrics.digest()
        assert platform.traces.digest() == ref.traces.digest()
