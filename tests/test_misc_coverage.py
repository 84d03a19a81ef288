"""Edge-case coverage for corners the main suites do not reach."""

import math

import pytest

from repro.analysis import aggregate_percentiles
from repro.core import CodeDeployer, ConfigStore, RolloutParams
from repro.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.workloads import CallTrace, LogNormal


def trace(cpu=10.0, outcome="ok"):
    return CallTrace(call_id=1, function="f", trigger="queue", criticality=1,
                     quota_type="reserved", submit_time=0.0,
                     start_time_requested=0.0, dispatch_time=1.0,
                     finish_time=2.0, region_submitted="r",
                     region_executed="r", worker="w", outcome=outcome,
                     cpu_minstr=cpu, memory_mb=64.0, exec_time_s=1.0)


class TestAggregatePercentiles:
    def test_values_and_filtering(self):
        traces = [trace(cpu=float(i)) for i in range(1, 101)]
        traces.append(trace(cpu=1e9, outcome="error"))  # excluded
        p50, p99 = aggregate_percentiles(traces, "cpu_minstr", (50, 99))
        assert p50 == 50.0
        assert p99 == 99.0


class TestMetricsRegistryWindows:
    def test_counter_window_override(self):
        reg = MetricsRegistry(counter_window=60.0)
        c = reg.counter("custom", window=10.0)
        assert c.window == 10.0


class TestLogNormalAnalytics:
    def test_mean_matches_closed_form_unclamped(self):
        ln = LogNormal(mu=1.0, sigma=0.5)
        assert ln.mean == pytest.approx(math.exp(1.0 + 0.125))

    def test_mean_with_tight_cap_approaches_cap(self):
        ln = LogNormal(mu=10.0, sigma=2.0, hi=5.0)
        # Essentially all mass is above the cap.
        assert ln.mean == pytest.approx(5.0, rel=0.01)

    def test_degenerate_sigma_zero(self):
        ln = LogNormal(mu=math.log(7.0), sigma=0.0)
        assert ln.mean == pytest.approx(7.0)
        assert ln.median == pytest.approx(7.0)


class TestCodeDeployerLifecycle:
    def test_start_twice_rejected(self):
        sim = Simulator()
        deployer = CodeDeployer(sim)
        deployer.start()
        with pytest.raises(RuntimeError):
            deployer.start()

    def test_stop_halts_pushes(self):
        sim = Simulator()
        deployer = CodeDeployer(
            sim, RolloutParams(push_interval_s=100.0))
        deployer.start()
        sim.run_until(150.0)
        version_after_one = deployer.current_version.version
        deployer.stop()
        sim.run_until(1000.0)
        assert deployer.current_version.version == version_after_one

    def test_push_with_no_workers_is_safe(self):
        sim = Simulator()
        deployer = CodeDeployer(sim)
        deployer.push_new_version()
        sim.run_until(5000.0)
        assert deployer.current_version.version == 2


class TestConfigStoreEdge:
    def test_unsubscribed_key_get_default(self):
        store = ConfigStore(Simulator(), propagation_delay_s=0.0)
        assert store.get("nope", default=42) == 42
        assert store.version("nope") == 0

    def test_multiple_subscribers_all_fire(self):
        sim = Simulator()
        store = ConfigStore(sim, propagation_delay_s=1.0)
        seen = []
        store.subscribe("k", lambda k, v: seen.append(("a", v)))
        store.subscribe("k", lambda k, v: seen.append(("b", v)))
        store.publish("k", 5)
        sim.run_until(2.0)
        assert seen == [("a", 5), ("b", 5)]
