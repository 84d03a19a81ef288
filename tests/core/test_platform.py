"""Integration tests of the full XFaaS platform façade."""

import math

import pytest

from repro import PlatformParams, Simulator, XFaaS, build_topology
from repro.downstream import ServiceRegistry, build_tao_stack
from repro.workloads import FunctionSpec, LogNormal, ResourceProfile


def profile(cpu=10.0, mem=64.0, exec_s=0.3):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(mem), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


def make_platform(seed=1, n_regions=3, workers=4, params=None):
    sim = Simulator(seed=seed)
    topo = build_topology(n_regions=n_regions, workers_per_unit=workers)
    return sim, XFaaS(sim, topo, params or PlatformParams())


class TestLifecycle:
    def test_submit_execute_complete(self):
        sim, platform = make_platform()
        spec = FunctionSpec(name="f", profile=profile())
        platform.register_function(spec)
        calls = [platform.submit("f") for _ in range(20)]
        sim.run_until(60.0)
        assert platform.completed_count() == 20
        assert all(c.finish_time is not None for c in calls)

    def test_unknown_function_raises(self):
        sim, platform = make_platform()
        with pytest.raises(KeyError):
            platform.submit("ghost")

    def test_unknown_region_rejected_before_any_accounting(self):
        sim, platform = make_platform()
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        received = platform.metrics.counter("calls.received")
        with pytest.raises(ValueError, match="known regions"):
            platform.submit("f", region="nowhere")
        assert platform.submitted_count == 0
        assert received.total == 0
        assert platform.arena.live == 0
        # No call id was consumed: the next call gets the first one.
        assert platform.submit("f").call_id == 1

    def test_wrong_namespace_rejected(self):
        sim, platform = make_platform()
        with pytest.raises(ValueError):
            platform.register_function(
                FunctionSpec(name="f", namespace="other"))

    def test_trace_collection(self):
        sim, platform = make_platform()
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        platform.submit("f")
        sim.run_until(30.0)
        assert len(platform.traces) == 1
        trace = next(iter(platform.traces))
        assert trace.outcome == "ok"
        assert trace.completion_latency > 0

    def test_metrics_counters(self):
        sim, platform = make_platform()
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        for _ in range(10):
            platform.submit("f")
        sim.run_until(60.0)
        assert platform.metrics.counter("calls.received").total == 10
        assert platform.metrics.counter("calls.executed").total == 10

    def test_future_start_delays_execution(self):
        sim, platform = make_platform()
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        call = platform.submit("f", start_delay_s=300.0)
        sim.run_until(200.0)
        assert call.finish_time is None
        sim.run_until(400.0)
        assert call.finish_time is not None
        assert call.dispatch_time >= 300.0

    def test_determinism_across_runs(self):
        def run():
            sim, platform = make_platform(seed=99)
            platform.register_function(
                FunctionSpec(name="f", profile=profile()))
            for _ in range(30):
                platform.submit("f")
            sim.run_until(120.0)
            base = min(t.call_id for t in platform.traces)
            return sorted((t.call_id - base, t.finish_time, t.worker)
                          for t in platform.traces)
        assert run() == run()


class TestInFlightCalls:
    def test_peak_bounds_on_a_short_dayrun(self):
        from repro.scenarios import build_dayrun
        run = build_dayrun(horizon_s=200.0, n_functions=12, n_regions=3,
                           total_rate=4.0)
        platform = run.platform
        in_flight_at_end = platform.submitted_count - len(platform.traces)
        assert platform.arena.live == in_flight_at_end
        assert in_flight_at_end <= len(platform.arena)
        assert len(platform.arena) <= platform.submitted_count

    def test_submitted_call_readable_after_it_terminalizes(self):
        from repro.core import CallState
        sim, platform = make_platform()
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        call = platform.submit("f")
        sim.run_until(30.0)
        assert platform.arena.live == 0
        assert len(platform.arena) == 1
        assert call.state is CallState.COMPLETED
        assert call.finish_time is not None
        assert call.worker_name is not None


class TestIsolationIntegration:
    def test_high_to_low_flow_denied_end_to_end(self):
        sim, platform = make_platform()
        platform.register_function(
            FunctionSpec(name="f", isolation_level=0, profile=profile()))
        call = platform.submit("f", source_level=5)
        sim.run_until(30.0)
        assert call.outcome is not None
        assert call.outcome.value == "isolation_denied"

    def test_low_to_high_allowed(self):
        sim, platform = make_platform()
        platform.register_function(
            FunctionSpec(name="f", isolation_level=3, profile=profile()))
        call = platform.submit("f", source_level=1)
        sim.run_until(30.0)
        assert call.outcome.value == "ok"


class TestDownstreamIntegration:
    def test_backpressure_reduces_function_rate(self):
        sim = Simulator(seed=5)
        topo = build_topology(n_regions=2, workers_per_unit=4)
        services = ServiceRegistry()
        tao, wtcache, kvstore = build_tao_stack(
            sim, services, wtcache_capacity_rps=20.0,
            kvstore_capacity_rps=10.0)
        from repro.core import CongestionParams
        params = PlatformParams(
            congestion=CongestionParams(
                backpressure_threshold_per_min=30.0, adjust_window_s=30.0))
        platform = XFaaS(sim, topo, params, services=services)
        spec = FunctionSpec(name="hammer", profile=profile(exec_s=0.05),
                            downstream=(("wtcache", 2),))
        platform.register_function(spec)
        # Saturate: 50 submissions/second for 5 minutes.
        task = sim.every(1.0, lambda: [platform.submit("hammer")
                                       for _ in range(50)])
        sim.run_until(300.0)
        task.cancel()
        # AIMD must have engaged and cut the rate below the initial cap.
        assert platform.congestion.decrease_count > 0
        assert platform.congestion.rps_limit("hammer") < 1e9

    def test_downstream_exceptions_counted(self):
        sim = Simulator(seed=6)
        topo = build_topology(n_regions=1, workers_per_unit=4)
        services = ServiceRegistry()
        build_tao_stack(sim, services, wtcache_capacity_rps=5.0,
                        kvstore_capacity_rps=5.0)
        platform = XFaaS(sim, topo, services=services)
        spec = FunctionSpec(name="f", profile=profile(exec_s=0.05),
                            downstream=(("wtcache", 5),))
        platform.register_function(spec)
        task = sim.every(1.0, lambda: [platform.submit("f")
                                       for _ in range(30)])
        sim.run_until(120.0)
        task.cancel()
        assert platform.metrics.counter("backpressure.wtcache").total > 0


class TestAblationFlags:
    def test_no_time_shifting_pins_s_high(self):
        sim, platform = make_platform(
            params=PlatformParams(time_shifting=False))
        from repro.core import S_MULTIPLIER_KEY
        sim.run_until(30.0)
        assert platform.config.get(S_MULTIPLIER_KEY) == 1.0e9

    def test_no_locality_groups_single_group(self):
        sim, platform = make_platform(
            params=PlatformParams(locality_groups=False))
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        assert platform.locality_optimizer.n_groups == 1

    def test_no_global_dispatch_identity_matrix(self):
        sim, platform = make_platform(
            params=PlatformParams(global_dispatch=False))
        sim.run_until(300.0)
        from repro.core import TRAFFIC_MATRIX_KEY
        assert platform.config.get(TRAFFIC_MATRIX_KEY) is None

    def test_spiky_client_registration(self):
        sim, platform = make_platform()
        platform.register_spiky_client("big-team")
        spec = FunctionSpec(name="f", team="big-team", profile=profile())
        platform.register_function(spec)
        platform.submit("f")
        sim.run_until(10.0)
        spiky_accepted = sum(f.spiky.accepted_count
                             for f in platform.frontends.values())
        assert spiky_accepted == 1


class TestControllerFailure:
    def test_platform_survives_controller_outage(self):
        # §4.1: critical path keeps executing on cached configs when the
        # central controllers are down.
        sim, platform = make_platform()
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        sim.run_until(120.0)
        platform.gtc.stop()
        platform.utilization_controller.stop()
        platform.locality_optimizer.stop()
        before = platform.completed_count()
        for _ in range(20):
            platform.submit("f")
        sim.run_until(300.0)
        assert platform.completed_count() == before + 20


class TestQueueLBStorageBalancing:
    def test_policy_spreads_durableq_writes(self):
        # §4.3: with a capacity-proportional routing policy, a region's
        # submissions are stored across multiple regions' DurableQs.
        sim, platform = make_platform(
            seed=13, params=PlatformParams(queuelb_locality_bias=0.3))
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        sim.run_until(30.0)  # let QueueLB caches pick up the policy
        region = platform.topology.region_names[0]
        for _ in range(300):
            platform.submit("f", region=region)
        sim.run_until(40.0)
        by_region = {
            r: sum(q.enqueued_count for q in qs)
            for r, qs in platform.durableqs_by_region.items()}
        stored_remotely = sum(n for r, n in by_region.items() if r != region)
        assert stored_remotely > 50  # meaningful cross-region storage

    def test_default_keeps_storage_local(self):
        sim, platform = make_platform(seed=14)
        platform.register_function(FunctionSpec(name="f", profile=profile()))
        region = platform.topology.region_names[0]
        for _ in range(100):
            platform.submit("f", region=region)
        sim.run_until(10.0)
        by_region = {
            r: sum(q.enqueued_count for q in qs)
            for r, qs in platform.durableqs_by_region.items()}
        assert by_region[region] == 100
