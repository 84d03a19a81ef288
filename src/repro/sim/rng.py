"""Named, reproducible random-number streams.

Every stochastic component in the reproduction draws from its own named
stream derived from a single master seed.  This gives two properties the
benchmarks rely on:

* **Reproducibility** — the same master seed always yields the same run.
* **Stream independence** — adding a new random consumer (e.g. a new
  workload) does not perturb the draws seen by existing consumers, so
  A/B experiments stay paired.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect
from itertools import accumulate
from typing import Any, Callable, Dict, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Stable, platform-independent seed for the named child stream.

    Used both for the per-component streams inside one simulation (via
    :class:`RngRegistry`) and by :mod:`repro.sweep` to derive per-run
    master seeds from one sweep-level seed, so a sweep is reproducible
    from a single integer.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named wrapper around :class:`random.Random` with simulation helpers."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self._rng = random.Random(seed)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample; ``rate`` is events per unit time."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self._rng.expovariate(rate)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._rng.lognormvariate(mu, sigma)

    def pareto(self, alpha: float, x_min: float = 1.0) -> float:
        """Pareto sample with scale ``x_min`` (heavy tails for exec times)."""
        return x_min * (1.0 + self._rng.paretovariate(alpha) - 1.0)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, lst: List[Any]) -> None:
        self._rng.shuffle(lst)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        return self._rng.choices(items, weights=weights, k=1)[0]

    def weighted_chooser(self, items: Sequence[T],
                         weights: Sequence[float]) -> Callable[[], T]:
        """Precomputed closure equivalent to :meth:`weighted_choice`.

        ``random.Random.choices`` rebuilds the cumulative-weight table on
        every call; callers picking from a *fixed* distribution per draw
        (client-region choice, QueueLB routing rows) pay that repeatedly.
        The returned closure draws exactly one ``random()`` and bisects a
        table built once — the same algorithm ``choices`` uses
        internally, so the value stream is bit-identical draw for draw.
        """
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        cum = list(accumulate(weights))
        total = cum[-1] + 0.0
        if total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        hi = len(items) - 1
        random_ = self._rng.random
        items = list(items)

        def choose() -> T:
            return items[bisect(cum, random_() * total, 0, hi)]

        return choose

    def poisson(self, lam: float) -> int:
        """Poisson sample via inversion (small lam) or normal approx (large)."""
        if lam < 0:
            raise ValueError(f"lam must be non-negative, got {lam}")
        if lam == 0:
            return 0
        if lam > 500:
            return max(0, int(round(self._rng.gauss(lam, lam ** 0.5))))
        # Knuth inversion.
        import math
        limit = math.exp(-lam)
        k, p = 0, 1.0
        while True:
            p *= self._rng.random()
            if p <= limit:
                return k
            k += 1


class RngRegistry:
    """Factory of named :class:`RngStream` objects from one master seed."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return (creating if needed) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = RngStream(name, derive_seed(self.master_seed, name))
        return self._streams[name]
