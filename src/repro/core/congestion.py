"""Adaptive concurrency control protecting downstream services (§4.6.3).

Three cooperating mechanisms, per function:

* **AIMD rate control** — downstream services throw back-pressure
  exceptions when overloaded.  When a function's exceptions per minute
  from any one service exceed the threshold, its RPS limit is cut
  multiplicatively (``r ← r·M``); windows free of back-pressure raise
  it additively (``r ← r + I``).  The paper's production threshold example is 5,000
  exceptions/min for the largest services.
* **Concurrency limit** — a per-function cap on simultaneously running
  instances (safety net for services that do not emit back-pressure).
* **Slow start** — when a function's call volume is above ``T`` calls
  per window ``W``, its dispatch volume may grow at most ``α`` per
  window, giving downstream caches/autoscalers time to warm up.
  Production values: W = 1 min, T = 100 calls, α = 20%.  W is the
  AIMD adjust window, ``adjust_window_s``: every call of
  :meth:`CongestionController.adjust` rolls the slow-start windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..util import add_slots
from ..workloads.spec import FunctionSpec
from .ratelimiter import TokenBucket

#: AIMD never cuts a function's RPS limit below this floor.
MIN_RPS = 0.1


@dataclass(frozen=True)
class CongestionParams:
    """Tunables of §4.6.3 with the paper's production defaults."""

    multiplicative_decrease: float = 0.5   # M
    additive_increase_rps: float = 10.0    # I, per adjustment window
    #: AIMD adjust window; also the slow-start window W.
    adjust_window_s: float = 60.0
    backpressure_threshold_per_min: float = 100.0
    slow_start_threshold_calls: float = 100.0  # T
    slow_start_growth: float = 0.20        # α
    initial_rps: float = 1.0e9             # effectively uncapped until AIMD engages

    def __post_init__(self) -> None:
        if not 0 < self.multiplicative_decrease < 1:
            raise ValueError("multiplicative_decrease must be in (0, 1)")
        if self.additive_increase_rps <= 0:
            raise ValueError("additive_increase_rps must be positive")
        if self.slow_start_growth <= 0:
            raise ValueError("slow_start_growth must be positive")
        # A zero initial limit refuses every dispatch until AIMD engages,
        # which it never does without dispatches: the run stalls.
        if not self.initial_rps > 0:
            raise ValueError("initial_rps must be positive")
        if not self.adjust_window_s > 0:
            raise ValueError("adjust_window_s must be positive")


@add_slots
@dataclass
class _FunctionState:
    spec: FunctionSpec
    rps_limit: float
    bucket: TokenBucket
    running: int = 0
    #: Back-pressure exceptions per downstream service this window.
    window_exceptions: Dict[str, float] = field(default_factory=dict)
    #: Dispatches in the current and previous slow-start windows.
    window_dispatches: float = 0.0
    prev_window_dispatches: float = 0.0
    aimd_engaged: bool = False


class CongestionController:
    """Per-function AIMD + concurrency limit + slow start."""

    def __init__(self, params: Optional[CongestionParams] = None) -> None:
        self.params = params or CongestionParams()
        # Slow-start constants folded once for the dispatch gate.
        self._ss_growth_factor = 1.0 + self.params.slow_start_growth
        self._ss_threshold = self.params.slow_start_threshold_calls
        self._functions: Dict[str, _FunctionState] = {}
        self.decrease_count = 0
        self.increase_count = 0
        self.slow_start_denials = 0
        self.concurrency_denials = 0
        self.rate_denials = 0

    # ------------------------------------------------------------------
    def register(self, spec: FunctionSpec) -> None:
        if spec.name in self._functions:
            return
        p = self.params
        self._functions[spec.name] = _FunctionState(
            spec=spec, rps_limit=p.initial_rps,
            bucket=TokenBucket(rate=p.initial_rps, burst_s=1.0))

    # ------------------------------------------------------------------
    # Dispatch-time gates
    # ------------------------------------------------------------------
    def can_dispatch(self, name: str, now: float) -> bool:
        """All three gates; consumes a rate token when allowed."""
        st = self._functions.get(name)
        if st is None:
            raise KeyError(
                f"function {name!r} not registered with congestion controller")
        if not self.can_dispatch_state(st, now):
            return False
        st.bucket.tokens -= 1.0
        return True

    def state_for(self, name: str) -> _FunctionState:
        """Resolve a function's gate state once (scheduler sweeps gate
        many calls of the same function back to back)."""
        return self._require(name)

    def can_dispatch_state(self, st: _FunctionState, now: float) -> bool:
        """:meth:`can_dispatch` on a pre-resolved :meth:`state_for`, but
        without taking the rate token: the caller takes it
        (``st.bucket.tokens -= 1.0``) only once the dispatch goes ahead,
        so a call another gate refuses spends no rate budget (§4.6.3)."""
        limit = st.spec.concurrency_limit
        if limit is not None and st.running >= limit:
            self.concurrency_denials += 1
            return False
        allowance = st.prev_window_dispatches * self._ss_growth_factor
        if allowance < self._ss_threshold:
            allowance = self._ss_threshold
        if st.window_dispatches >= allowance:
            self.slow_start_denials += 1
            return False
        if st.bucket.ready(now, st.rps_limit):
            return True
        self.rate_denials += 1
        return False

    def on_dispatch(self, st: _FunctionState) -> None:
        """Count a dispatch that passed :meth:`can_dispatch_state`."""
        st.running += 1
        st.window_dispatches += 1

    def cancel_dispatch(self, st: _FunctionState) -> None:
        """Undo :meth:`on_dispatch` for a call that could not be placed,
        and give its rate token back."""
        if st.running > 0:
            st.running -= 1
        wd = st.window_dispatches - 1.0
        st.window_dispatches = wd if wd > 0.0 else 0.0
        st.bucket.refund()

    def on_finish(self, name: str) -> None:
        st = self._require(name)
        if st.running <= 0:
            raise RuntimeError(f"on_finish without dispatch for {name!r}")
        st.running -= 1

    def on_backpressure(self, name: str, service: str, n: float = 1.0) -> None:
        """A downstream ``service`` threw ``n`` back-pressure exceptions."""
        st = self._require(name)
        st.window_exceptions[service] = st.window_exceptions.get(service, 0.0) + n

    def running(self, name: str) -> int:
        return self._require(name).running

    def rps_limit(self, name: str) -> float:
        return self._require(name).rps_limit

    # ------------------------------------------------------------------
    # Periodic adjustment (call every adjust_window_s)
    # ------------------------------------------------------------------
    def adjust(self, now: float) -> None:
        """Run one AIMD window for every function and roll slow-start windows."""
        p = self.params
        threshold = p.backpressure_threshold_per_min * (
            p.adjust_window_s / 60.0)
        for st in self._functions.values():
            over = any(count > threshold
                       for count in st.window_exceptions.values())
            if over:
                # First decrease anchors the limit to the observed rate so
                # the cut bites immediately rather than decaying from the
                # uncapped initial limit.
                if not st.aimd_engaged:
                    observed_rps = st.window_dispatches / p.adjust_window_s
                    st.rps_limit = max(observed_rps, MIN_RPS)
                    st.aimd_engaged = True
                st.rps_limit = max(
                    st.rps_limit * p.multiplicative_decrease, MIN_RPS)
                self.decrease_count += 1
            elif st.aimd_engaged:
                st.rps_limit = st.rps_limit + p.additive_increase_rps
                self.increase_count += 1
                if st.rps_limit >= p.initial_rps:
                    st.rps_limit = p.initial_rps
                    st.aimd_engaged = False
            st.window_exceptions.clear()
            st.prev_window_dispatches = st.window_dispatches
            st.window_dispatches = 0.0

    # ------------------------------------------------------------------
    def _require(self, name: str) -> _FunctionState:
        st = self._functions.get(name)
        if st is None:
            raise KeyError(
                f"function {name!r} not registered with congestion controller")
        return st
