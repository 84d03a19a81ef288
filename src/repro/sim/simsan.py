"""simsan — the opt-in runtime determinism sanitizer.

The trace and metrics digest pins prove a run *reproduces*; simsan
checks the determinism invariants behind them on the *running*
simulation.  ``Simulator(sanitize=True)`` (or ``python -m repro
simulate --sanitize``) wraps the kernel's RNG registry and lets
platforms wrap their region-keyed maps in checking proxies that raise
:class:`SanitizeError` on:

* **out-of-order RNG draws** — a stream drawn at a simulation time
  earlier than its previous draw (replay / time-travel bugs);
* **iteration-order-dependent scheduling** — iterating a region map
  whose keys are not in sorted order, the precondition for insertion
  order leaking into event order;
* **lease-protocol violations** — the DurableQ lease state machine
  (§4, at-least-once delivery): a call ACKed or NACKed twice, settled
  both ways, extended after settling, or re-leased after an ACK
  (:class:`LeaseGuard`).  Lease *expiry* stays tolerant, exactly like
  :class:`~repro.core.durableq.DurableQ` itself — at-least-once
  semantics make a late settle of an expired lease a legal no-op.

The hard guarantee is *zero behavioral skew*: every check observes and
forwards, never perturbs.  :class:`SanitizedRngStream` derives the
identical child seed and draws through the identical code paths as
:class:`~repro.sim.rng.RngStream`, so a sanitized run produces a
bit-identical trace digest to the unsanitized run (asserted by
``tests/sim/test_simsan.py`` and the CI ``sanitize-smoke`` job).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    ItemsView,
    KeysView,
    List,
    Optional,
    Protocol,
    Sequence,
    TypeVar,
    ValuesView,
)

from .rng import RngRegistry, RngStream, derive_seed

T = TypeVar("T")


class SanitizeError(RuntimeError):
    """A determinism invariant was violated at runtime."""


class SupportsNow(Protocol):
    """The only piece of the kernel the sanitizer needs: a clock."""

    @property
    def now(self) -> float: ...


class LeaseGuard:
    """The DurableQ lease state machine, checked on the running queue.

    Tracks each call id through ``leased -> {acked | nacked}`` as the
    queue reports protocol events, raising :class:`SanitizeError` on
    every illegal transition.  Observation only: the
    guard holds its own table and never touches queue state, so a
    sanitized run's trace digest is bit-identical to a plain run.

    A call id with no recorded state is *tolerated* for every settle
    event — that is the lease-expiry race DurableQ itself treats as a
    no-op — and an expired lease is forgotten entirely, so a second
    scheduler re-leasing and settling the same call stays legal.
    """

    _LEASED = "leased"
    _ACKED = "ACKed"
    _NACKED = "NACKed"

    def __init__(self) -> None:
        self._states: Dict[int, str] = {}

    def _fail(self, queue: str, call_id: int, event: str,
              state: str) -> None:
        raise SanitizeError(
            f"lease-protocol violation on {queue!r}: {event} of call "
            f"{call_id} which is already {state} — each leased call "
            f"settles exactly once (FSM: polled -> acked | nacked)")

    def on_lease(self, queue: str, call_id: int) -> None:
        state = self._states.get(call_id)
        if state == self._LEASED:
            self._fail(queue, call_id, "lease", "leased")
        if state == self._ACKED:
            self._fail(queue, call_id, "lease", self._ACKED)
        # NACKed (redelivery) and unknown (first lease / expired) are
        # the two legal ways back into the leased state.
        self._states[call_id] = self._LEASED

    def on_ack(self, queue: str, call_id: int) -> None:
        state = self._states.get(call_id)
        if state in (self._ACKED, self._NACKED):
            self._fail(queue, call_id, "ACK", state)
        if state is not None:
            self._states[call_id] = self._ACKED

    def on_nack(self, queue: str, call_id: int) -> None:
        state = self._states.get(call_id)
        if state in (self._ACKED, self._NACKED):
            self._fail(queue, call_id, "NACK", state)
        if state is not None:
            self._states[call_id] = self._NACKED

    def on_extend(self, queue: str, call_id: int) -> None:
        state = self._states.get(call_id)
        if state in (self._ACKED, self._NACKED):
            self._fail(queue, call_id, "extend_lease", state)

    def on_expire(self, queue: str, call_id: int) -> None:
        self._states.pop(call_id, None)


class Sanitizer:
    """Shared checking state for one simulation's sanitized run.

    Holds the clock the draw-order checks read and the lease state
    machine.  Checks are pure observation; no method here mutates
    anything a model component can see.
    """

    def __init__(self, clock: SupportsNow) -> None:
        self._clock = clock
        #: Lease state machine; DurableQ reports protocol events
        #: here when its simulator runs sanitized.
        self.lease_guard = LeaseGuard()

    @property
    def now(self) -> float:
        return self._clock.now


class SanitizedRngStream(RngStream):
    """An :class:`RngStream` that checks every draw, forwarding exactly.

    Subclasses the real stream (same seed derivation, same underlying
    ``random.Random``), so the value sequence is bit-identical to an
    unsanitized stream — the check runs *before* each draw and never
    consumes entropy.
    """

    def __init__(self, name: str, seed: int, sanitizer: Sanitizer) -> None:
        super().__init__(name, seed)
        self._sanitizer = sanitizer
        self._last_draw_at = float("-inf")

    def _check(self) -> None:
        now = self._sanitizer.now
        if now < self._last_draw_at:
            raise SanitizeError(
                f"out-of-order draw on RNG stream {self.name!r}: "
                f"drawing at sim time {now} after a draw at "
                f"{self._last_draw_at}")
        self._last_draw_at = now

    def uniform(self, lo: float, hi: float) -> float:
        self._check()
        return super().uniform(lo, hi)

    def random(self) -> float:
        self._check()
        return super().random()

    def randint(self, lo: int, hi: int) -> int:
        self._check()
        return super().randint(lo, hi)

    def expovariate(self, rate: float) -> float:
        self._check()
        return super().expovariate(rate)

    def lognormal(self, mu: float, sigma: float) -> float:
        self._check()
        return super().lognormal(mu, sigma)

    def pareto(self, alpha: float, x_min: float = 1.0) -> float:
        self._check()
        return super().pareto(alpha, x_min)

    def gauss(self, mu: float, sigma: float) -> float:
        self._check()
        return super().gauss(mu, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        self._check()
        return super().choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        self._check()
        return super().sample(seq, k)

    def shuffle(self, lst: List[Any]) -> None:
        self._check()
        super().shuffle(lst)

    def weighted_choice(self, items: Sequence[T],
                        weights: Sequence[float]) -> T:
        self._check()
        return super().weighted_choice(items, weights)

    def weighted_chooser(self, items: Sequence[T],
                         weights: Sequence[float]) -> Callable[[], T]:
        # The parent builds the table once and draws through a closure;
        # wrap the closure so memoized choosers stay checked per draw.
        choose = super().weighted_chooser(items, weights)

        def checked() -> T:
            self._check()
            return choose()

        return checked

    def poisson(self, lam: float) -> int:
        self._check()
        return super().poisson(lam)


class SanitizedRngRegistry(RngRegistry):
    """An :class:`RngRegistry` that mints checking streams.

    Seed derivation is identical to the parent's, so stream ``name``
    yields the same draw sequence sanitized or not.
    """

    def __init__(self, master_seed: int, sanitizer: Sanitizer) -> None:
        super().__init__(master_seed)
        self._sanitizer = sanitizer

    def stream(self, name: str) -> RngStream:
        existing = self._streams.get(name)
        if existing is None:
            existing = SanitizedRngStream(
                name, derive_seed(self.master_seed, name), self._sanitizer)
            self._streams[name] = existing
        return existing


class RegionMapProxy(Dict[str, Any]):
    """A region-keyed dict that checks iteration order.

    Still a real ``dict`` (construction order, lookups, ``in``, ``len``
    all behave identically), so wrapping a platform map changes nothing
    a component can observe — only iterating it while its keys are out
    of sorted order now raises.
    """

    def __init__(self, name: str) -> None:
        super().__init__()
        self._name = name

    def _check_order(self) -> None:
        keys = list(dict.keys(self))
        if keys != sorted(keys):
            raise SanitizeError(
                f"iteration over region map {self._name!r} whose keys are "
                f"not in sorted order ({keys}): scheduling decisions would "
                f"depend on dict insertion order — iterate "
                f"sorted(map.items()) or insert in sorted order")

    def __iter__(self) -> Iterator[str]:
        self._check_order()
        return super().__iter__()

    def keys(self) -> KeysView[str]:
        self._check_order()
        return super().keys()

    def values(self) -> ValuesView[Any]:
        self._check_order()
        return super().values()

    def items(self) -> ItemsView[str, Any]:
        self._check_order()
        return super().items()


def region_map(sanitizer: Optional[Sanitizer],
               name: str) -> Dict[str, Any]:
    """Platform helper: a checking proxy when sanitizing, else a dict.

    Platforms create their region-keyed maps through this so the
    sanitized and unsanitized wiring stay one code path::

        self.schedulers = region_map(sim.sanitizer, "schedulers")
    """
    if sanitizer is None:
        return {}
    return RegionMapProxy(name)
