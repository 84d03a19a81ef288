"""Determinism regression: same-seeded mini-dayruns hash identically.

This is the safety net for every kernel optimization in this repo: the
tuple-heap event queue, lazy arrival streaming, and the array-backed
metrics must all preserve *bit-identical* traces for a fixed master
seed.  The test runs the same miniature platform twice (fresh object
graphs, same seed) and compares a SHA-256 over every field of every
call trace; a third run with a different seed must diverge.
"""

import hashlib
import json
import math
import re
from pathlib import Path

from repro import (
    FunctionSpec,
    Incident,
    IncidentInjector,
    PlatformParams,
    ServiceRegistry,
    Simulator,
    XFaaS,
    build_tao_stack,
    build_topology,
)
from repro.cluster import MachineSpec, size_topology_for_utilization
from repro.profile import cyclic_garbage
from repro.core import CongestionParams, LocalityParams, SchedulerParams
from repro.workloads import (
    ArrivalGenerator,
    ConstantRate,
    LogNormal,
    ResourceProfile,
    build_population,
    estimate_demand_minstr,
)

HORIZON_S = 420.0


def _run_mini_dayrun(seed: int):
    # Call ids come from the platform's own CallIdAllocator, so two
    # back-to-back runs in one process see identical ids with no reset
    # step — test_same_seed_identical_trace_hash fails on a shared
    # module-level counter.
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


#: Per-worker ``admission_rejections`` and ``calls_started`` of the quick
#: dayrun, in ``platform.all_workers`` order.  Neither digest covers
#: them, and the WorkerLB's CPU bound refuses most probes without
#: entering ``Worker.execute``, so this pins the refusal accounting.
QUICK_DAYRUN_ADMISSION_REJECTIONS = (
    8930, 8851, 16526, 1309, 1332, 2656, 1502, 1527, 17124, 11174, 11798,
    19870, 16229)
QUICK_DAYRUN_CALLS_STARTED = (
    334, 294, 845, 262, 101, 653, 492, 331, 705, 398, 298, 880, 805)


class TestQuickDayrunRefusalAccountingPin:
    def test_per_worker_refusals_and_starts_match_pins(self):
        from repro.scenarios import build_dayrun
        workers = build_dayrun(horizon_s=600.0).platform.all_workers
        assert tuple(w.admission_rejections for w in workers) == \
            QUICK_DAYRUN_ADMISSION_REJECTIONS
        assert tuple(w.calls_started for w in workers) == \
            QUICK_DAYRUN_CALLS_STARTED


class TestCiDigestPins:
    """The CI profile smokes pass the quick-dayrun pins on the command
    line; a re-pin that misses one of them fails here, not in CI."""

    CI_YML = (Path(__file__).resolve().parents[1] / ".github" /
              "workflows" / "ci.yml")

    def test_ci_expect_digests_equal_the_test_pins(self):
        text = self.CI_YML.read_text()
        trace = re.findall(r"--expect-digest\s+(\S+)", text)
        metrics = re.findall(r"--expect-metrics-digest\s+(\S+)", text)
        # The profile and alloc-profile smokes carry one of each.
        assert len(trace) == 2 and len(metrics) == 2
        assert set(trace) == {QUICK_DAYRUN_DIGEST}
        assert set(metrics) == {QUICK_DAYRUN_METRICS_DIGEST}

    def test_ci_pins_seed_11_digest_of_every_workload(self):
        # The seed-11 gate runs xbench at the held-out seed and compares
        # each workload's trace digest with a pin in its heredoc.  A
        # workload added without a pin, a truncated pin, or a seed-7
        # value pasted in its place fails here.
        root = self.CI_YML.parents[2]
        text = self.CI_YML.read_text()
        step = text[text.index("name: xbench seed-11 digest gate"):]
        step = step[:step.index("- name:")]
        assert "run.py --seed 11 " in step
        pins = dict(re.findall(r'"([\w-]+)":\s*"([0-9a-f]*)"', step))
        workloads = json.loads((root / "BENCHMARK.json").read_text())
        assert set(pins) == {w["name"] for w in workloads["workloads"]}
        assert all(len(d) == 64 for d in pins.values())
        run_py = (root / "benchmarks" / "xbench" / "run.py").read_text()
        seed7 = run_py[run_py.index("SEED7_DIGESTS = {"):]
        seed7 = set(re.findall(r"[0-9a-f]{64}", seed7[:seed7.index("}")]))
        assert len(seed7) == len(pins)
        assert not seed7 & set(pins.values())


class TestFleetrunMetricsDigestPin:
    def test_1k_fleetrun_matches_pinned_metrics_digest(self):
        from repro.scenarios import build_fleetrun
        run = build_fleetrun(1000)
        assert run.platform.metrics.digest() == FLEETRUN_1K_METRICS_DIGEST


#: Trace and metrics digests of a shortened §5.5 KVStore incident
#: (:func:`_run_backpressure_incident`), pinned at the per-batch
#: downstream model, before it cached overload odds per load window.
BACKPRESSURE_INCIDENT_DIGEST = (
    "bd1db7b6760f14122912f1abb773e899da94ec46552c804743309160d77a543e")
BACKPRESSURE_INCIDENT_METRICS_DIGEST = (
    "984a3d562dfb8aad33db06e5013dcafd6aa49a0447b54b596675f6a2a89271a2")


def _run_backpressure_incident():
    """Fig 13's loop in 1,200 s: KVStore degrades from 400 s to 800 s."""
    sim = Simulator(seed=13)
    services = ServiceRegistry()
    _, _, kvstore = build_tao_stack(
        sim, services, tao_capacity_rps=5000.0,
        wtcache_capacity_rps=400.0, kvstore_capacity_rps=400.0)
    platform = XFaaS(
        sim, build_topology(n_regions=2, workers_per_unit=6),
        PlatformParams(congestion=CongestionParams(
            backpressure_threshold_per_min=60.0, adjust_window_s=30.0,
            additive_increase_rps=5.0)),
        services=services)
    platform.register_function(FunctionSpec(
        name="graph-sync", quota_minstr_per_s=1.0e6,
        profile=ResourceProfile(
            cpu_minstr=LogNormal(mu=math.log(20.0), sigma=0.3),
            memory_mb=LogNormal(mu=math.log(32.0), sigma=0.3),
            exec_time_s=LogNormal(mu=math.log(0.2), sigma=0.3)),
        downstream=(("wtcache", 3),)))
    IncidentInjector(sim).inject(
        kvstore, Incident("kvstore", 400.0, 800.0, degraded_factor=0.05))
    sim.every(1.0, lambda: [platform.submit("graph-sync")
                            for _ in range(40)])
    sim.run_until(1200.0)
    return platform


class TestBackpressureIncidentDigestPin:
    def test_incident_matches_pinned_digests(self):
        platform = _run_backpressure_incident()
        # The pin covers the whole §5.5 loop: back-pressure, AIMD cuts
        # and additive recovery all happen inside the horizon.
        assert platform.metrics.counter("backpressure.wtcache").total > 0
        assert platform.congestion.decrease_count > 0
        assert platform.congestion.increase_count > 0
        assert platform.traces.digest() == BACKPRESSURE_INCIDENT_DIGEST
        assert platform.metrics.digest() == \
            BACKPRESSURE_INCIDENT_METRICS_DIGEST


class TestRunsLeaveNoCyclicGarbage:
    """``Simulator.run_until`` pauses the cyclic collector, which is
    safe only while refcounting frees everything a run discards.
    ``cyclic_garbage`` keeps the collector off for the build and the
    run, so whatever cycle they leave behind stays to be counted."""

    def test_three_runs_leave_nothing_for_the_collector(self):
        from repro.scenarios import build_dayrun, build_fleetrun
        builds = (
            ("quick dayrun", lambda: build_dayrun(horizon_s=600.0)),
            ("2k fleetrun", lambda: build_fleetrun(2000, horizon_s=600.0)),
            ("KVStore incident", _run_backpressure_incident),
        )
        runs = []  # a live run is not garbage; keep each one alive
        for name, build in builds:
            with cyclic_garbage() as garbage:
                runs.append(build())
            assert garbage == {}, name
