"""Miniature end-to-end run guarding the benchmark pipeline.

A 30-simulated-minute version of the benchmark suite's shared day-run:
paper-shaped population, sized topology, all controllers live.  Checks
the structural invariants that, when broken, historically showed up as
mysterious benchmark failures hours later.
"""

import statistics

import pytest

from repro import PlatformParams, Simulator, XFaaS
from repro.cluster import MachineSpec, size_topology_for_utilization
from repro.core import LocalityParams, SchedulerParams
from repro.workloads import (
    ArrivalGenerator,
    ConstantRate,
    build_population,
    estimate_demand_minstr,
)

HORIZON_S = 1800.0


@pytest.fixture(scope="module")
def minirun():
    sim = Simulator(seed=77)
    population = build_population(n_functions=60, total_rate=8.0,
                                  opportunistic_fraction=0.6)
    for load in population.loads:
        load.shape = ConstantRate(1.0)
        load.shape_mean = 1.0
        load.future_start_fraction = 0.0
    machine = MachineSpec(cores=2, core_mips=500, threads=48)
    demand = estimate_demand_minstr(population, core_mips=machine.core_mips)
    topology = size_topology_for_utilization(
        demand, target_utilization=0.70, n_regions=4, machine_spec=machine)
    platform = XFaaS(sim, topology, PlatformParams(
        scheduler=SchedulerParams(poll_interval_s=2.0, buffer_capacity=1000,
                                  runq_capacity=300),
        locality=LocalityParams(n_groups=2),
        memory_sample_interval_s=120.0,
        distinct_window_s=600.0))
    for spec in population.specs:
        platform.register_function(spec)
    ArrivalGenerator(sim, population,
                     lambda spec, delay: platform.submit(spec.name),
                     tick_s=10.0, stop_at=HORIZON_S)
    sim.run_until(HORIZON_S)
    return sim, platform, population


class TestMiniDayrun:
    def test_throughput_tracks_arrivals(self, minirun):
        sim, platform, _ = minirun
        # Steady offered load at ~the sized operating point: most work
        # completes within the horizon (no silent starvation).
        assert platform.completed_count() > 0.75 * platform.submitted_count

    def test_conservation(self, minirun):
        sim, platform, _ = minirun
        completed = sum(s.completed_count
                        for s in platform.schedulers.values())
        failed = sum(s.failed_count for s in platform.schedulers.values())
        pending = platform.pending_backlog()
        running = sum(w.running_count for w in platform.all_workers)
        batched = sum(len(f.normal._batch) + len(f.spiky._batch)
                      for f in platform.frontends.values())
        accepted = platform.submitted_count - platform.throttled_count
        assert completed + failed + pending + running + batched == accepted

    def test_workers_meaningfully_utilized(self, minirun):
        sim, platform, _ = minirun
        utils = [w.cpu.utilization_total(sim.now)
                 for w in platform.all_workers]
        assert statistics.mean(utils) > 0.35

    def test_no_phantom_congestion_state(self, minirun):
        sim, platform, population = minirun
        # Every function's "running" count in the congestion controller
        # matches reality (workers + parked pipeline entries).
        for load in population.loads:
            name = load.spec.name
            actual = sum(
                1 for w in platform.all_workers
                for rc in w._running.values()
                if rc.call.function_name == name)
            parked = sum(
                1 for s in platform.schedulers.values()
                for *_, c in s.runq._heap if c.function_name == name)
            assert platform.congestion.running(name) == actual + parked, name

    def test_cost_averages_converge(self, minirun):
        sim, platform, population = minirun
        # For well-invoked functions the learned cost average lands
        # within 3x of the analytic profile mean (heavy tails allowed).
        for load in population.loads:
            traces = platform.traces.for_function(load.spec.name)
            if len(traces) < 300:
                continue
            learned = platform.rate_limiter.avg_cost(load.spec.name)
            analytic = load.spec.profile.mean_cpu(500.0)
            assert analytic / 3 < learned < analytic * 3

    def test_buffers_consistent(self, minirun):
        sim, platform, _ = minirun
        for s in platform.schedulers.values():
            actual = sum(len(b) for b in s._buffers.values())
            assert s.buffered_count == actual
