"""Tests for AIMD, concurrency limits, and slow start (§4.6.3)."""

import pytest

from repro.core import CongestionController, CongestionParams
from repro.core.congestion import MIN_RPS
from repro.sim import Simulator
from repro.workloads import FunctionSpec


def make_controller(**overrides):
    defaults = dict(multiplicative_decrease=0.5, additive_increase_rps=10.0,
                    adjust_window_s=60.0, backpressure_threshold_per_min=100.0,
                    slow_start_threshold_calls=100.0, slow_start_growth=0.2)
    defaults.update(overrides)
    return CongestionController(CongestionParams(**defaults))


class TestAimd:
    def test_decrease_on_backpressure_over_threshold(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        # Simulate a window of dispatches at ~200 RPS with heavy exceptions.
        for _ in range(1000):
            if ctl.can_dispatch("f", 0.0):
                ctl.on_dispatch(ctl.state_for("f"))
        ctl.on_backpressure("f", "svc", 150.0)
        ctl.adjust(60.0)
        r1 = ctl.rps_limit("f")
        assert r1 < 1e9  # engaged and anchored to the observed rate
        ctl.on_backpressure("f", "svc", 150.0)
        ctl.adjust(120.0)
        # Multiplicative decrease: halved (M = 0.5).
        assert ctl.rps_limit("f") == pytest.approx(r1 * 0.5)

    def test_additive_increase_when_clear(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        ctl.on_dispatch(ctl.state_for("f"))
        ctl.on_backpressure("f", "svc", 150.0)
        ctl.adjust(60.0)
        r1 = ctl.rps_limit("f")
        ctl.adjust(120.0)  # clean window
        assert ctl.rps_limit("f") == pytest.approx(r1 + 10.0)

    def test_below_threshold_no_decrease(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        ctl.on_backpressure("f", "svc", 50.0)  # below 100/min
        ctl.adjust(60.0)
        assert ctl.rps_limit("f") == pytest.approx(1e9)

    def test_threshold_applies_per_service(self):
        # Exceptions from different services are not summed: 2 x 60/min
        # stays under the 100/min threshold, 1 x 120/min does not.
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        ctl.on_backpressure("f", "a", 60.0)
        ctl.on_backpressure("f", "b", 60.0)
        ctl.adjust(60.0)
        assert ctl.rps_limit("f") == pytest.approx(1e9)
        ctl.on_backpressure("f", "a", 120.0)
        ctl.adjust(120.0)
        assert ctl.rps_limit("f") < 1e9

    def test_limit_floor(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        for window in range(1, 60):
            ctl.on_backpressure("f", "svc", 500.0)
            ctl.adjust(window * 60.0)
        assert ctl.rps_limit("f") == pytest.approx(MIN_RPS)

    def test_full_recovery_disengages(self):
        ctl = make_controller(additive_increase_rps=1e9)
        ctl.register(FunctionSpec(name="f"))
        ctl.on_dispatch(ctl.state_for("f"))
        ctl.on_backpressure("f", "svc", 150.0)
        ctl.adjust(60.0)
        ctl.adjust(120.0)  # huge additive step → back to initial
        assert ctl.rps_limit("f") == pytest.approx(1e9)


class TestConcurrencyLimit:
    def test_cap_enforced(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f", concurrency_limit=2))
        assert ctl.can_dispatch("f", 0.0)
        ctl.on_dispatch(ctl.state_for("f"))
        assert ctl.can_dispatch("f", 0.0)
        ctl.on_dispatch(ctl.state_for("f"))
        assert not ctl.can_dispatch("f", 0.0)
        assert ctl.concurrency_denials == 1

    def test_finish_frees_slot(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f", concurrency_limit=1))
        ctl.on_dispatch(ctl.state_for("f"))
        ctl.on_finish("f")
        assert ctl.can_dispatch("f", 0.0)

    def test_cancel_dispatch_returns_rate_token(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        state = ctl.state_for("f")
        state.rps_limit = 2.0
        assert ctl.can_dispatch("f", 0.0)  # tokens capped to 2, one taken
        ctl.on_dispatch(state)
        ctl.cancel_dispatch(state)
        assert state.bucket.tokens == 2.0
        assert (state.running, state.window_dispatches) == (0, 0.0)
        ctl.cancel_dispatch(state)  # a second refund stays at the cap
        assert state.bucket.tokens == 2.0

    def test_unbalanced_finish_raises(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        with pytest.raises(RuntimeError):
            ctl.on_finish("f")


class TestWindowRoll:
    def test_start_rolls_every_adjust_window(self):
        sim = Simulator()
        ctl = make_controller(adjust_window_s=30.0)
        ctl.register(FunctionSpec(name="f"))
        ctl.start(sim)
        sim.run_until(1.0)  # the t=0 roll
        ctl.on_dispatch(ctl.state_for("f"))
        sim.run_until(30.0)
        st = ctl.state_for("f")
        assert (st.prev_window_dispatches, st.window_dispatches) == (1.0, 0.0)

    def test_double_start_rejected(self):
        sim = Simulator()
        ctl = make_controller()
        ctl.start(sim)
        with pytest.raises(RuntimeError):
            ctl.start(sim)


class TestSlowStart:
    def test_free_below_threshold(self):
        # W=1 min, T=100: under 100 calls per window no gating applies.
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        for _ in range(99):
            assert ctl.can_dispatch("f", 0.0)
            ctl.on_dispatch(ctl.state_for("f"))

    def test_growth_capped_at_alpha(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        dispatched_per_window = []
        for window in range(6):
            count = 0
            for _ in range(10_000):
                if ctl.can_dispatch("f", window * 60.0):
                    ctl.on_dispatch(ctl.state_for("f"))
                    ctl.on_finish("f")
                    count += 1
            dispatched_per_window.append(count)
            ctl.adjust((window + 1) * 60.0)
        # First window: T = 100.  Each later window ≤ prev × 1.2.
        assert dispatched_per_window[0] == 100
        for prev, cur in zip(dispatched_per_window, dispatched_per_window[1:]):
            assert cur <= prev * 1.2 + 1
        assert dispatched_per_window[-1] > dispatched_per_window[0]

    def test_denial_counted(self):
        ctl = make_controller()
        ctl.register(FunctionSpec(name="f"))
        for _ in range(150):
            if ctl.can_dispatch("f", 0.0):
                ctl.on_dispatch(ctl.state_for("f"))
        assert ctl.slow_start_denials == 50


class TestValidation:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            CongestionParams(multiplicative_decrease=1.5)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_initial_rps_must_be_positive(self, value):
        # A zero limit refuses every dispatch, so AIMD never engages
        # and the run completes nothing.
        with pytest.raises(ValueError, match="initial_rps"):
            CongestionParams(initial_rps=value)

    @pytest.mark.parametrize("value", [0.0, -30.0])
    def test_adjust_window_must_be_positive(self, value):
        with pytest.raises(ValueError, match="adjust_window_s"):
            CongestionParams(adjust_window_s=value)
        with pytest.raises(ValueError):
            CongestionParams(additive_increase_rps=0)

    def test_unregistered_function_raises(self):
        with pytest.raises(KeyError):
            make_controller().can_dispatch("nope", 0.0)

