"""DownstreamService vs an uncached reference model: identical, op by op.

``DownstreamService.call`` derives a service's load ratio and its
failure/exception thresholds only when a window rolls or a capacity
factor changes, and rolls the windows ``load_ratio`` would visit
inline.  These tests pin that contract against ``ReferenceService``, a
copy of the model that re-reads the ratio through the property chain on
every batch.  Both models get the same seeded op sequence: batches
(including ``n = 0``), clock advances that land exactly on window
boundaries, capacity changes at the instant of a batch, and outside
reads of ``health``/``load_rps``/``effective_capacity`` (which roll
windows).  After every op, each batch result, every total, every
window's state and every service's random stream must be identical.
"""

import random

import pytest

from repro.downstream import (
    DownstreamService,
    ServiceCallResult,
    ServiceParams,
)
from repro.sim import Simulator


class ReferenceService:
    """The downstream model with no caching: every read walks the chain."""

    def __init__(self, sim, name, params=ServiceParams(), depends_on=(),
                 amplification=1.0, dependency_coupling=1.0):
        self.sim = sim
        self.name = name
        self.params = params
        self.depends_on = list(depends_on)
        self.amplification = amplification
        self.dependency_coupling = dependency_coupling
        self._window_start = 0.0
        self._window_requests = 0.0
        self._current_load_rps = 0.0
        self._capacity_factor = 1.0
        self.total_requests = 0
        self.total_exceptions = 0
        self.total_failures = 0
        self.rng = sim.rng.stream(f"service/{name}")

    @property
    def health(self):
        ratio = self.load_ratio
        if ratio <= 1.0:
            return 1.0
        return max(0.1, 1.0 / ratio)

    @property
    def effective_capacity(self):
        capacity = self.params.capacity_rps * self._capacity_factor
        if self.depends_on and self.dependency_coupling > 0:
            worst = min(dep.health for dep in self.depends_on)
            capacity *= (1.0 - self.dependency_coupling * (1.0 - worst))
        return capacity

    @property
    def load_rps(self):
        self._roll_window()
        return self._current_load_rps

    @property
    def load_ratio(self):
        return self.load_rps / max(self.effective_capacity, 1e-9)

    def set_capacity_factor(self, factor):
        self._capacity_factor = factor

    def call(self, n):
        if n <= 0:
            return ServiceCallResult()
        self._roll_window()
        self._window_requests += n
        self.total_requests += n
        result = ServiceCallResult()
        ratio = self.load_ratio
        exception_prob = self._exception_prob(ratio)
        failure_prob = self._failure_prob(ratio)
        for _ in range(n):
            roll = self.rng.random()
            if roll < failure_prob:
                result.failures += 1
            elif roll < failure_prob + exception_prob:
                result.exceptions += 1
            else:
                result.ok += 1
        self.total_exceptions += result.exceptions
        self.total_failures += result.failures
        for dep in self.depends_on:
            amplified = int(round(n * self.amplification))
            if result.failures or result.exceptions:
                amplified = int(round(amplified * 1.5))
            if amplified > 0:
                dep.call(amplified)
        return result

    def _exception_prob(self, ratio):
        p = self.params
        if ratio <= p.backpressure_knee:
            return 0.0
        frac = min((ratio - p.backpressure_knee) / (2.0 - p.backpressure_knee),
                   1.0)
        return p.max_exception_prob * frac

    def _failure_prob(self, ratio):
        p = self.params
        if ratio <= 1.0:
            return 0.0
        return min((ratio - 1.0) * p.failure_prob_at_2x, p.failure_prob_at_2x)

    def _roll_window(self):
        now = self.sim.now
        elapsed = now - self._window_start
        if elapsed >= self.params.window_s:
            self._current_load_rps = self._window_requests / elapsed
            self._window_start = now
            self._window_requests = 0.0


#: ``(name, ServiceParams kwargs, depends_on names, amplification,
#: dependency_coupling)``, dependencies first.
SHAPES = {
    # The §5.5 stack of build_tao_stack, scaled down so small batches
    # overload it: wtcache -> (kvstore, tao).
    "tao": [
        ("tao", dict(capacity_rps=60.0, window_s=2.0), (), 1.0, 1.0),
        ("kvstore", dict(capacity_rps=15.0, window_s=2.0), (), 1.0, 1.0),
        ("wtcache", dict(capacity_rps=20.0, window_s=2.0),
         ("kvstore", "tao"), 0.5, 0.9),
    ],
    # a -> b, a -> c, b -> c: c is reached twice through a's ratio.
    "diamond": [
        ("c", dict(capacity_rps=12.0, window_s=3.0), (), 1.0, 1.0),
        ("b", dict(capacity_rps=16.0, window_s=2.5,
                   failure_prob_at_2x=0.6), ("c",), 1.0, 0.7),
        ("a", dict(capacity_rps=25.0, window_s=2.0, backpressure_knee=0.5),
         ("b", "c"), 0.8, 1.0),
    ],
    # x is decoupled from its dependencies' health; y sends them nothing.
    "decoupled": [
        ("z", dict(capacity_rps=8.0, window_s=1.5), (), 1.0, 1.0),
        ("y", dict(capacity_rps=12.0, window_s=2.0), ("z",), 0.0, 1.0),
        ("x", dict(capacity_rps=15.0, window_s=4.0), ("y", "z"), 1.0, 0.0),
    ],
}


def build(cls, sim, shape):
    services = {}
    for name, params, deps, amplification, coupling in SHAPES[shape]:
        services[name] = cls(
            sim, name, ServiceParams(**params),
            depends_on=tuple(services[d] for d in deps),
            amplification=amplification, dependency_coupling=coupling)
    return services


def assert_same_state(real, ref):
    for name, a in real.items():
        b = ref[name]
        assert (a.total_requests, a.total_exceptions, a.total_failures) == \
            (b.total_requests, b.total_exceptions, b.total_failures), name
        assert (a._current_load_rps, a._window_start, a._window_requests) == \
            (b._current_load_rps, b._window_start, b._window_requests), name
        assert a.rng._rng.getstate() == b.rng._rng.getstate(), name


def drive(shape, seed, n_ops=400):
    """Apply one seeded op sequence to both models, checking every op."""
    ops = random.Random(seed)
    sim_a, sim_b = Simulator(seed=seed), Simulator(seed=seed)
    real = build(DownstreamService, sim_a, shape)
    ref = build(ReferenceService, sim_b, shape)
    names = sorted(real)

    def call(name, n):
        assert real[name].call(n) == ref[name].call(n)

    for _ in range(n_ops):
        op = ops.random()
        name = ops.choice(names)
        if op < 0.45:
            call(name, ops.choice((0, 0, 1, 2, 5, 10, 20, 40)))
        elif op < 0.55:
            # Capacity change at the instant of a batch.
            factor = ops.choice((0.0, 0.05, 0.5, 1.0, 3.0))
            real[name].set_capacity_factor(factor)
            ref[name].set_capacity_factor(factor)
            call(ops.choice(names), ops.randint(1, 30))
        elif op < 0.70:
            attr = ops.choice(("health", "load_rps", "effective_capacity",
                               "load_ratio"))
            assert getattr(real[name], attr) == getattr(ref[name], attr)
        elif op < 0.85:
            # Land exactly on a window boundary.  window_start + window_s
            # may round below window_start by a hair under window_s, so
            # both sides of the roll test get exercised.
            target = ref[name]._window_start + ref[name].params.window_s
            if target >= sim_b.now:
                sim_a.run_until(target)
                sim_b.run_until(target)
        else:
            dt = ops.uniform(0.0, ops.choice((0.0, 1.0, 6.0)))
            sim_a.run_until(sim_a.now + dt)
            sim_b.run_until(sim_b.now + dt)
        assert sim_a.now == sim_b.now
        assert_same_state(real, ref)
    return real


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", range(12))
def test_cached_model_matches_reference(shape, seed):
    real = drive(shape, seed)
    # The sequence must reach the overload branches, or it proves little.
    assert sum(s.total_exceptions for s in real.values()) > 0
    assert sum(s.total_failures for s in real.values()) > 0
