"""Determinism regression: same-seeded mini-dayruns hash identically.

This is the safety net for every kernel optimization in this repo: the
tuple-heap event queue, the zero-delay FIFO lane, lazy arrival
streaming, and the array-backed metrics must all preserve *bit-identical*
traces for a fixed master seed.  The test runs the same miniature
platform twice (fresh object graphs, same seed) and compares a SHA-256
over every field of every call trace; a third run with a different seed
must diverge.
"""

import hashlib

from repro import PlatformParams, Simulator, XFaaS
from repro.cluster import MachineSpec, size_topology_for_utilization
from repro.core import LocalityParams, SchedulerParams
from repro.workloads import (
    ArrivalGenerator,
    ConstantRate,
    build_population,
    estimate_demand_minstr,
)

HORIZON_S = 420.0


def _run_mini_dayrun(seed: int):
    # Call ids come from the platform's own CallIdAllocator, so two
    # back-to-back runs in one process see identical ids with no reset
    # step — the property simlint rule SL001 enforces statically.
    sim = Simulator(seed=seed)
    population = build_population(n_functions=24, total_rate=6.0,
                                  opportunistic_fraction=0.5)
    for load in population.loads:
        load.shape = ConstantRate(1.0)
        load.shape_mean = 1.0
    machine = MachineSpec(cores=2, core_mips=500, threads=48)
    demand = estimate_demand_minstr(population, core_mips=machine.core_mips)
    topology = size_topology_for_utilization(
        demand, target_utilization=0.70, n_regions=2, machine_spec=machine)
    platform = XFaaS(sim, topology, PlatformParams(
        scheduler=SchedulerParams(poll_interval_s=2.0, buffer_capacity=500,
                                  runq_capacity=200),
        locality=LocalityParams(n_groups=2),
        memory_sample_interval_s=60.0,
        distinct_window_s=300.0))
    for spec in population.specs:
        platform.register_function(spec)
    ArrivalGenerator(sim, population,
                     lambda spec, delay: platform.submit(spec.name),
                     tick_s=10.0, stop_at=HORIZON_S)
    sim.run_until(HORIZON_S)
    return sim, platform


def _trace_hash(platform) -> str:
    h = hashlib.sha256()
    for t in platform.traces:
        h.update(repr((t.call_id, t.function, t.submit_time,
                       t.start_time_requested, t.dispatch_time, t.finish_time,
                       t.region_submitted, t.region_executed, t.worker,
                       t.outcome, t.cpu_minstr, t.memory_mb, t.exec_time_s,
                       t.attempts)).encode())
    return h.hexdigest()


class TestTraceDeterminism:
    def test_same_seed_identical_trace_hash(self):
        sim_a, platform_a = _run_mini_dayrun(seed=77)
        sim_b, platform_b = _run_mini_dayrun(seed=77)
        assert len(platform_a.traces) > 100, "mini-dayrun produced no work"
        assert _trace_hash(platform_a) == _trace_hash(platform_b)
        # Event counts and final clocks agree too, not just the traces.
        assert sim_a.events_executed == sim_b.events_executed
        assert sim_a.now == sim_b.now

    def test_different_seed_diverges(self):
        _, platform_a = _run_mini_dayrun(seed=77)
        _, platform_b = _run_mini_dayrun(seed=78)
        assert _trace_hash(platform_a) != _trace_hash(platform_b)


#: Trace digest of the quick dayrun (``build_dayrun(horizon_s=600)``);
#: the CI profile smokes pass it to ``--expect-digest``.
QUICK_DAYRUN_DIGEST = (
    "2c89e0e3d857ce0a3974f6e7360089e1cc23a53c6c9c52e4c2c8c8c31387ab5a")


#: ``MetricsRegistry.digest`` of the quick dayrun and of a 1k-worker
#: fleetrun, pinned at the values of the per-worker RIM and Fig 10
#: samplers, before both became proportional to activity.
QUICK_DAYRUN_METRICS_DIGEST = (
    "e98a499372257634da9b9ca0a08eaf6af2900fe259a73d442debea2e17ed2f92")
FLEETRUN_1K_METRICS_DIGEST = (
    "5f6b69a33fb43cb1f87b8e8e8ee546502260dd3da1093e95577ead8200900017")


class TestQuickDayrunDigestPin:
    def test_two_runs_in_process_match_pinned_digest(self):
        self._check_pins(sanitize=False)

    def test_sanitized_runs_match_pinned_digest(self):
        # simsan observes but never consumes: with every check armed the
        # run must hit the plain run's pins.
        self._check_pins(sanitize=True)

    @staticmethod
    def _check_pins(sanitize: bool):
        # The arrival stream goes through XFaaS.submit_stream; a second
        # run in the same process must not see state left by the first.
        from repro.scenarios import build_dayrun
        for _ in range(2):
            run = build_dayrun(horizon_s=600.0, sanitize=sanitize)
            assert run.platform.traces.digest() == QUICK_DAYRUN_DIGEST
            metrics = run.platform.metrics
            assert metrics.digest() == QUICK_DAYRUN_METRICS_DIGEST
            # Reading a percentile sorts samples in place; the digest
            # must not notice.
            metrics.distribution("worker.memory_mb").percentile(50)
            assert metrics.digest() == QUICK_DAYRUN_METRICS_DIGEST


class TestFleetrunMetricsDigestPin:
    def test_1k_fleetrun_matches_pinned_metrics_digest(self):
        from repro.scenarios import build_fleetrun
        run = build_fleetrun(1000)
        assert run.platform.metrics.digest() == FLEETRUN_1K_METRICS_DIGEST
