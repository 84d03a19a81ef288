"""Tests for downstream service overload/back-pressure models (§5.5)."""

import pytest

from repro.downstream import (
    DownstreamService,
    Incident,
    IncidentInjector,
    ServiceParams,
    ServiceRegistry,
    build_tao_stack,
)
from repro.sim import Simulator


def make_service(sim=None, capacity=100.0, **params):
    sim = sim or Simulator(seed=1)
    return sim, DownstreamService(
        sim, "svc", ServiceParams(capacity_rps=capacity, **params))


class TestServiceParamsValidation:
    @pytest.mark.parametrize("bad", [
        dict(window_s=0.0),
        dict(window_s=-1.0),
        dict(backpressure_knee=0.0),
        dict(backpressure_knee=2.0),
        dict(backpressure_knee=3.0),
        dict(max_exception_prob=-0.1),
        dict(max_exception_prob=1.5),
        dict(failure_prob_at_2x=-0.1),
        dict(failure_prob_at_2x=1.5),
        dict(capacity_rps=0.0),
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejects_values_that_break_the_model(self, bad):
        with pytest.raises(ValueError):
            ServiceParams(**bad)

    def test_accepts_the_bounds(self):
        ServiceParams(backpressure_knee=1.99, max_exception_prob=1.0,
                      failure_prob_at_2x=0.0, window_s=1e-3)


class TestConstruction:
    def test_depends_on_is_a_fixed_tuple(self):
        sim, base = make_service()
        deps = [base]
        svc = DownstreamService(sim, "top", depends_on=deps)
        deps.clear()
        assert svc.depends_on == (base,)

    def test_dependency_on_another_simulator_rejected(self):
        _, other = make_service()
        with pytest.raises(ValueError):
            DownstreamService(Simulator(seed=1), "top", depends_on=[other])


class TestHealthyService:
    def test_under_capacity_no_exceptions(self):
        sim, svc = make_service(capacity=1000.0)
        result = svc.call(50)
        assert result.exceptions == 0
        assert result.failures == 0
        assert result.ok == 50

    def test_load_tracking(self):
        sim, svc = make_service(capacity=1000.0, window_s=10.0)
        svc.call(500)
        sim.run_until(10.0)
        assert svc.load_rps == pytest.approx(50.0)


class TestOverload:
    def _overload(self, factor=3.0, capacity=100.0):
        sim, svc = make_service(capacity=capacity, window_s=5.0)
        # Establish high measured load over several windows.
        total = {"exceptions": 0, "failures": 0, "ok": 0}
        for step in range(1, 41):
            result = svc.call(int(capacity * factor / 2))
            total["exceptions"] += result.exceptions
            total["failures"] += result.failures
            total["ok"] += result.ok
            sim.run_until(step * 0.5)
        return svc, total

    def test_overload_throws_backpressure(self):
        svc, totals = self._overload(factor=3.0)
        assert totals["exceptions"] > 0

    def test_extreme_overload_fails_hard(self):
        svc, totals = self._overload(factor=6.0)
        assert totals["failures"] > 0

    def test_distress_grows_with_overload(self):
        # More overload → more non-ok outcomes (exceptions + failures).
        _, mild = self._overload(factor=1.5)
        _, severe = self._overload(factor=6.0)
        total_mild = sum(mild.values())
        total_severe = sum(severe.values())
        distress_mild = (mild["exceptions"] + mild["failures"]) / total_mild
        distress_severe = (severe["exceptions"] + severe["failures"]) / \
            total_severe
        assert distress_severe > distress_mild * 1.2

    def test_capacity_factor_degradation(self):
        # Incident injection: capacity drops → same load now overloads.
        sim, svc = make_service(capacity=1000.0, window_s=5.0)
        svc.set_capacity_factor(0.05)
        for step in range(1, 21):
            svc.call(100)
            sim.run_until(step * 0.5)
        assert svc.total_exceptions > 0

    def test_zero_call_noop(self):
        sim, svc = make_service()
        result = svc.call(0)
        assert result.ok == 0 and result.exceptions == 0


class TestCascade:
    def test_dependency_receives_amplified_traffic(self):
        sim = Simulator(seed=2)
        registry = ServiceRegistry()
        tao, wtcache, kvstore = build_tao_stack(sim, registry)
        wtcache.call(100)
        assert kvstore.total_requests > 0
        assert tao.total_requests > 0

    def test_failures_amplify_retries_downstream(self):
        # §5.5: failures and retries amplified queries to dependencies.
        sim = Simulator(seed=3)
        registry = ServiceRegistry()
        tao, wtcache, kvstore = build_tao_stack(
            sim, registry, wtcache_capacity_rps=10.0)
        # Overload WTCache heavily past several load windows; once its
        # measured load exceeds capacity, its failures/exceptions
        # amplify the traffic to KVStore by 1.5×.
        n_steps = 120
        for step in range(1, n_steps + 1):
            wtcache.call(50)
            sim.run_until(step * 0.5)
        base_expected = n_steps * 50 * 0.5  # amplification-free volume
        assert wtcache.total_exceptions > 0
        assert kvstore.total_requests > base_expected


class TestRegistry:
    def test_register_and_get(self):
        sim = Simulator()
        registry = ServiceRegistry()
        _, svc = make_service(sim)
        registry.register(svc)
        assert registry.get("svc") is svc
        assert registry.maybe_get("nope") is None
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_duplicate_rejected(self):
        sim = Simulator()
        registry = ServiceRegistry()
        _, svc = make_service(sim)
        registry.register(svc)
        with pytest.raises(ValueError):
            registry.register(svc)


class TestIncidentInjector:
    def test_incident_window(self):
        sim, svc = make_service()
        injector = IncidentInjector(sim)
        injector.inject(svc, Incident("svc", start_s=100.0, end_s=200.0,
                                      degraded_factor=0.1))
        sim.run_until(150.0)
        assert svc.effective_capacity == pytest.approx(10.0)
        sim.run_until(250.0)
        assert svc.effective_capacity == pytest.approx(100.0)

    def test_wrong_service_rejected(self):
        sim, svc = make_service()
        injector = IncidentInjector(sim)
        with pytest.raises(ValueError):
            injector.inject(svc, Incident("other", 0.0, 10.0, 0.5))

    def test_incident_validation(self):
        with pytest.raises(ValueError):
            Incident("s", 10.0, 5.0, 0.5)
        with pytest.raises(ValueError):
            Incident("s", 0.0, 10.0, 1.5)
