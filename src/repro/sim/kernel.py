"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock and the event queue.  Components
schedule plain callbacks (:meth:`Simulator.call_at` /
:meth:`Simulator.call_after`) and periodic ticks (:meth:`Simulator.every`).

The kernel is intentionally minimal — there is no global registry or
implicit singleton.  Everything in the reproduction receives the
simulator it runs on, which keeps tests hermetic.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Optional

from .events import EventQueue, ScheduledEvent
from .rng import RngRegistry
from .simsan import Sanitizer, SanitizedRngRegistry


class SimulationError(Exception):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :class:`RngRegistry`).
    sanitize:
        Install the :mod:`repro.sim.simsan` runtime sanitizer: the RNG
        registry mints checking streams and ``self.sanitizer`` is set
        so platforms wrap their region maps.  The sanitized run is
        bit-identical to the unsanitized one (checks observe, never
        draw or reorder); violations raise
        :class:`~repro.sim.simsan.SanitizeError`.
    """

    def __init__(self, seed: int = 0, sanitize: bool = False) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        #: Runtime sanitizer, or None when ``sanitize`` is off.  Set
        #: before the RNG registry so every stream ever minted (incl.
        #: the ones PeriodicTask binds at init) goes through the checks.
        self.sanitizer: Optional[Sanitizer] = None
        if sanitize:
            self.sanitizer = Sanitizer(self)
            self.rng: RngRegistry = SanitizedRngRegistry(
                seed, self.sanitizer)
        else:
            self.rng = RngRegistry(seed)
        self._stopped = False
        self.events_executed = 0
        #: Optional time-attribution recorder (see :mod:`repro.profile`).
        #: When set, :meth:`run_until` delegates the dispatch loop to it
        #: so per-event timing never burdens the fast loop below.  The
        #: profiled loop replays identical queue semantics, so trace
        #: digests are bit-identical either way.
        self.profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float,
                callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})")
        return self._queue.push(time, callback)

    def call_after(self, delay: float,
                   callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback)

    def every(self, interval: float, callback: Callable[[], None],
              start: Optional[float] = None, jitter: float = 0.0,
              rng_stream: str = "periodic-jitter") -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until cancelled.

        ``jitter`` adds a uniform ±jitter offset per firing, drawn from a
        named RNG stream, which desynchronizes replicated components
        (e.g. many schedulers polling DurableQs) the way production
        replicas naturally desynchronize.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, jitter, rng_stream)
        first = self._now if start is None else start
        task._schedule_at(max(first, self._now))
        return task

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_until(self, time: float) -> None:
        """Execute events up to and including ``time``; clock ends at ``time``.

        The cyclic garbage collector is paused for the loop (the
        profiler's loop too) and put back as it was on exit, however
        the loop ends.  Refcounting frees everything a run discards, so
        the collector's passes over the run's heap reclaim nothing.
        The contract this rests on: simulation code must not create
        reference cycles per event; ``tests/test_determinism_trace.py``
        checks that three runs leave none behind.

        The pop loop is inlined over the queue internals: one
        ``_purge_head`` (head peek) and one ``_pop_head`` per event,
        with the hot attributes bound to locals outside the loop.
        """
        if time < self._now:
            raise SimulationError(f"run_until({time}) is in the past")
        gc_was_enabled = gc.isenabled()
        gc.disable()
        executed = 0
        try:
            if self.profiler is not None:
                self.profiler.run_until(self, time)
                return
            self._stopped = False
            queue = self._queue
            purge_head = queue._purge_head
            pop_head = queue._pop_head
            while not self._stopped:
                head = purge_head()
                if head is None or head[0] > time:
                    break
                entry = pop_head()
                self._now = entry[0]
                executed += 1
                entry[2].callback()
            if self._now < time:
                self._now = time
        finally:
            self.events_executed += executed
            if gc_was_enabled:
                gc.enable()

    def stop(self) -> None:
        """Stop the currently running :meth:`run_until` loop."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._queue.live_count()


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`Simulator.every`.

    :meth:`cancel` drops the callback and the pending event, so a
    cancelled task holds no reference back to its owner.  An owner that
    keeps its task (``self._task = sim.every(..., self.tick)``) would
    otherwise stay in a reference cycle that only the collector frees,
    and :meth:`Simulator.run_until` pauses the collector.
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None], jitter: float,
                 rng_stream: str) -> None:
        self._sim = sim
        self.interval = interval
        #: None once cancelled.
        self._callback: Optional[Callable[[], None]] = callback
        self._jitter = jitter
        self._rng_stream = rng_stream
        # Jittered tasks draw per firing; resolve the stream once here
        # (the stream's seed depends only on its name, so binding at
        # init draws the same sequence as looking it up per firing).
        self._jitter_rng = sim.rng.stream(rng_stream) if jitter > 0 else None
        self._handle: Optional[ScheduledEvent] = None
        self.fire_count = 0

    def _schedule_at(self, time: float) -> None:
        if self._callback is None:
            return
        if self._jitter_rng is not None:
            offset = self._jitter_rng.uniform(-self._jitter, self._jitter)
            when = max(self._sim._now, time + offset)
        else:
            when = max(self._sim._now, time)
        self._handle = self._sim.call_at(when, self._fire)

    def _fire(self) -> None:
        callback = self._callback
        if callback is None:
            return
        self.fire_count += 1
        base = self._sim.now
        callback()
        self._schedule_at(base + self.interval)

    def cancel(self) -> None:
        self._callback = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
