"""Profiler and hot-path-equivalence tests (PR 4 tentpole contract).

Three load-bearing properties:

1. Profiling is observation, not perturbation — a profiled run's trace
   digest is bit-identical to an unprofiled run of the same seed.
2. Bound metric handles are the *same objects* the lookup path returns,
   so interning a handle at component init can never change a value.
3. ``event_key`` attribution is stable for every callback shape the
   kernel schedules (bound methods, periodic tasks, lambdas, closures).
"""

import pytest

from repro.metrics.recorder import MetricsRegistry
from repro.profile import ProfileRecorder, event_key
from repro.scenarios import build_dayrun

HORIZON_S = 300.0


class TestProfiledDigestParity:
    def test_profiled_run_is_bit_identical(self):
        plain = build_dayrun(horizon_s=HORIZON_S)
        recorder = ProfileRecorder()
        with recorder.installed():
            profiled = build_dayrun(horizon_s=HORIZON_S, profiler=recorder)
        assert (profiled.platform.traces.digest()
                == plain.platform.traces.digest())
        assert (profiled.sim.events_executed
                == plain.sim.events_executed)

    def test_profile_actually_attributed_time(self):
        recorder = ProfileRecorder()
        with recorder.installed():
            build_dayrun(horizon_s=HORIZON_S, profiler=recorder)
        entries = recorder.entries()
        assert entries, "profiled run produced no attribution rows"
        components = {e["component"] for e in entries}
        # The dispatch chain must be visible, not just the kernel.
        assert "Scheduler" in components
        assert "Worker" in components
        total_calls = sum(e["count"] for e in entries)
        assert total_calls > 0
        assert all(e["self_s"] >= 0.0 for e in entries)
        assert recorder.total_s > 0.0

    def test_gate_rows_attributed(self):
        # The scheduler gates through the pre-resolved entry points;
        # the default targets must wrap those, not the by-name ones.
        recorder = ProfileRecorder()
        with recorder.installed():
            build_dayrun(horizon_s=HORIZON_S, profiler=recorder)
        rows = {(e["component"], e["event"]): e["count"]
                for e in recorder.entries()}
        assert rows.get(("CentralRateLimiter", "try_acquire_quota"), 0) > 0
        assert rows.get(("CongestionController", "can_dispatch_state"),
                        0) > 0

    def test_install_rejects_unknown_target(self):
        from repro.core.scheduler import Scheduler
        original = Scheduler.tick
        recorder = ProfileRecorder()
        targets = (("repro.core.scheduler", "Scheduler", ("tick",)),
                   ("repro.core.scheduler", "Scheduler", ("no_such",)))
        with pytest.raises(AttributeError, match="Scheduler.no_such"):
            recorder.install(targets)
        # Nothing was wrapped, so nothing is left to uninstall.
        assert Scheduler.tick is original
        with pytest.raises(AttributeError):
            recorder.install((("repro.core.scheduler", "NoSuchClass",
                               ("tick",)),))

    def test_uninstall_restores_classes(self):
        from repro.core.scheduler import Scheduler
        original = Scheduler.tick
        recorder = ProfileRecorder()
        with recorder.installed():
            assert Scheduler.tick is not original
        assert Scheduler.tick is original


class TestBoundHandles:
    def test_bound_handles_are_lookup_objects(self):
        reg = MetricsRegistry()
        assert reg.bind_counter("c") is reg.counter("c")
        assert reg.bind_gauge("g") is reg.gauge("g")
        assert reg.bind_distribution("d") is reg.distribution("d")

    def test_bound_counter_observes_same_values(self):
        reg = MetricsRegistry()
        bound = reg.bind_counter("calls.executed")
        bound.add(1.0, 3)
        reg.counter("calls.executed").add(2.0, 4)
        assert reg.counter("calls.executed").total == 7


def _module_level_poll():
    pass


class _Owner:
    def arm(self):
        return lambda: None


class TestEventKey:
    def test_bound_method(self):
        reg = MetricsRegistry()
        assert event_key(reg.counter) == ("MetricsRegistry", "counter")

    def test_plain_function(self):
        assert event_key(_module_level_poll) == (
            "<module>", "_module_level_poll")

    def test_lambda_attributes_to_defining_scope(self):
        comp, event = event_key(_Owner().arm())
        assert comp == "_Owner"
        assert event == "arm.<lambda>"

    def test_periodic_task_unwraps_to_callback(self):
        from repro.sim.kernel import Simulator

        class Controller:
            def tick(self):
                pass

        sim = Simulator(seed=1)
        ctrl = Controller()
        task = sim.every(5.0, ctrl.tick)
        assert event_key(task._fire) == ("Controller", "tick")
