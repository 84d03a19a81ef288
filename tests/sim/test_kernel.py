"""Tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.profile import ProfileRecorder
from repro.sim import SimulationError, Simulator


class TestClockAndScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_call_after_runs_at_right_time(self):
        sim = Simulator()
        seen = []
        sim.call_after(5.0, lambda: seen.append(sim.now))
        sim.run_until(100.0)
        assert seen == [5.0]

    def test_call_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(3.5, lambda: seen.append(sim.now))
        sim.run_until(100.0)
        assert seen == [3.5]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_after(10.0, lambda: None)
        sim.run_until(100.0)
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_after(-1.0, lambda: None)

    def test_fifo_order_at_same_time(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.call_at(1.0, lambda i=i: seen.append(i))
        sim.run_until(100.0)
        assert seen == list(range(10))

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.call_after(1.0, lambda: seen.append("x"))
        handle.cancel()
        sim.run_until(100.0)
        assert seen == []

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def first():
            sim.call_after(2.0, lambda: seen.append(sim.now))
        sim.call_after(1.0, first)
        sim.run_until(100.0)
        assert seen == [3.0]


class TestRunUntil:
    def test_clock_advances_to_horizon(self):
        sim = Simulator()
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_events_beyond_horizon_not_run(self):
        sim = Simulator()
        seen = []
        sim.call_after(5.0, lambda: seen.append("early"))
        sim.call_after(50.0, lambda: seen.append("late"))
        sim.run_until(10.0)
        assert seen == ["early"]
        sim.run_until(60.0)
        assert seen == ["early", "late"]

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_stop_aborts_run(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(1)
            sim.stop()
        sim.call_after(1.0, first)
        sim.call_after(2.0, lambda: seen.append(2))
        sim.run_until(100.0)
        assert seen == [1]


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now))
        sim.run_until(35.0)
        assert times == [0.0, 10.0, 20.0, 30.0]

    def test_start_offset(self):
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now), start=5.0)
        sim.run_until(30.0)
        assert times == [5.0, 15.0, 25.0]

    def test_cancel_stops_firing(self):
        sim = Simulator()
        times = []
        task = sim.every(10.0, lambda: times.append(sim.now))
        sim.run_until(25.0)
        task.cancel()
        sim.run_until(100.0)
        assert times == [0.0, 10.0, 20.0]

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        task_holder = {}

        def cb():
            if sim.now >= 20.0:
                task_holder["task"].cancel()
        task_holder["task"] = sim.every(10.0, cb)
        sim.run_until(100.0)
        assert task_holder["task"].fire_count == 3  # t=0, 10, 20

    def test_jitter_stays_near_interval(self):
        sim = Simulator(seed=3)
        times = []
        sim.every(10.0, lambda: times.append(sim.now), jitter=1.0)
        sim.run_until(100.0)
        assert len(times) >= 9
        for a, b in zip(times, times[1:]):
            assert 8.0 <= b - a <= 12.0

    def test_zero_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)

    def test_shared_instants_fire_in_arming_order(self):
        # Unjittered tasks tie-break by when each was last armed: a task
        # re-arms after its callback, so at t=10 "d" (re-armed at t=3)
        # fires before "c" (re-armed at t=5).  The platform's control
        # loops share instants, and its digests rest on this order.
        sim = Simulator()
        log = []
        for interval, start, tag in [(10.0, None, "a"), (10.0, None, "b"),
                                     (5.0, None, "c"), (7.0, 3.0, "d")]:
            sim.every(interval, lambda tag=tag: log.append((sim.now, tag)),
                      start=start)
        sim.run_until(40.0)
        assert log == [
            (0.0, "a"), (0.0, "b"), (0.0, "c"), (3.0, "d"), (5.0, "c"),
            (10.0, "a"), (10.0, "b"), (10.0, "d"), (10.0, "c"),
            (15.0, "c"), (17.0, "d"),
            (20.0, "a"), (20.0, "b"), (20.0, "c"), (24.0, "d"),
            (25.0, "c"),
            (30.0, "a"), (30.0, "b"), (30.0, "c"), (31.0, "d"),
            (35.0, "c"), (38.0, "d"),
            (40.0, "a"), (40.0, "b"), (40.0, "c"),
        ]

    def test_start_in_past_clamps_to_now(self):
        sim = Simulator()
        fired = []
        sim.call_after(10.0, lambda: sim.every(
            5.0, lambda: fired.append(sim.now), start=0.0))
        sim.run_until(21.0)
        assert fired == [10.0, 15.0, 20.0]

    def test_cancelled_at_shared_instant_by_earlier_task(self):
        # At t=20 "killer" (re-armed at t=10) fires before "victim"
        # (re-armed at t=15) and cancels it: "victim" fires neither then
        # nor later.
        sim = Simulator()
        log = []
        tasks = {}

        def victim():
            log.append((sim.now, "victim"))

        def killer():
            log.append((sim.now, "killer"))
            if sim.now >= 20.0:
                tasks["victim"].cancel()
        tasks["victim"] = sim.every(5.0, victim)
        sim.every(10.0, killer)
        sim.run_until(40.0)
        assert log == [
            (0.0, "victim"), (0.0, "killer"), (5.0, "victim"),
            (10.0, "killer"), (10.0, "victim"), (15.0, "victim"),
            (20.0, "killer"), (30.0, "killer"), (40.0, "killer"),
        ]


@pytest.fixture
def gc_state():
    """Restore the collector's enabled state whatever a test leaves."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class _Owner:
    """Keeps its own periodic task and cancels it from its callback."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._task = sim.every(1.0, self.tick)

    def tick(self) -> None:
        if self.sim.now >= 3.0:
            self._task.cancel()


@pytest.mark.usefixtures("gc_state")
class TestCancelledTaskHoldsNoCycle:
    def test_owner_freed_by_refcount_once_its_task_is_cancelled(self):
        # Owner -> task -> bound callback -> owner is a cycle until the
        # task is cancelled; cancelling must break it, since run_until
        # pauses the collector that would otherwise free it.
        gc.disable()
        sim = Simulator()
        owner = weakref.ref(_Owner(sim))
        sim.run_until(10.0)
        assert owner() is None


@pytest.mark.usefixtures("gc_state")
class TestCollectorPausedInRunUntil:
    """run_until pauses the cyclic collector and puts its state back."""

    def _probe(self, sim, seen):
        sim.call_after(1.0, lambda: seen.append(gc.isenabled()))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_run(self, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        sim = Simulator()
        seen = []
        self._probe(sim, seen)
        sim.run_until(10.0)
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_state_restored_when_callback_raises(self):
        gc.enable()
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")
        sim.call_after(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run_until(10.0)
        assert gc.isenabled()

    def test_state_restored_through_profiler_loop(self):
        gc.enable()
        sim = Simulator()
        sim.profiler = ProfileRecorder()
        seen = []
        self._probe(sim, seen)
        sim.run_until(10.0)
        assert seen == [False]
        assert sim.profiler.events_profiled == 1
        assert gc.isenabled()

    def test_nested_run_until_keeps_pause_until_outer_exits(self):
        gc.enable()
        sim = Simulator()
        seen = []

        def nested():
            sim.run_until(5.0)
            seen.append(gc.isenabled())
        sim.call_after(1.0, nested)
        self._probe(sim, seen)  # fires inside the nested run, at t=1
        sim.run_until(10.0)
        assert seen == [False, False]
        assert gc.isenabled()

    def test_no_collection_inside_loop(self):
        gc.enable()
        sim = Simulator()
        kept = []
        threshold = gc.get_threshold()[0]

        def allocate():
            kept.extend([i] for i in range(threshold))
        for t in range(20):
            sim.call_at(float(t), allocate)
        starts = []

        def on_gc(phase, info):
            if phase == "start":
                starts.append(info["generation"])
        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            sim.run_until(30.0)
        finally:
            gc.callbacks.remove(on_gc)
        assert len(kept) == 20 * threshold
        assert starts == []


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            sim = Simulator(seed=seed)
            out = []
            rng = sim.rng.stream("x")

            def tick():
                out.append((sim.now, rng.random()))
            sim.every(1.0, tick)
            sim.run_until(20.0)
            return out
        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_named_streams_are_independent(self):
        sim = Simulator(seed=1)
        a1 = [sim.rng.stream("a").random() for _ in range(5)]
        sim2 = Simulator(seed=1)
        # Interleave another stream: "a" should be unaffected.
        sim2.rng.stream("b").random()
        a2 = [sim2.rng.stream("a").random() for _ in range(5)]
        assert a1 == a2
