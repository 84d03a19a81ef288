"""Central Rate Limiter: global quotas and RPS limits (§4.6.1).

Every function has an owner-set quota in CPU cycles per second
(modelled as millions of instructions per second).  The quota is turned
into a requests-per-second limit by dividing by the function's average
cost per invocation, tracked as an exponential moving average of
observed executions.  Usage is aggregated *globally*: all submitters and
schedulers consult the same limiter, so a function cannot exceed its
limit by spreading calls across regions.

Opportunistic functions get an *elastic* limit ``r = r0 × S`` where S is
the Utilization Controller's multiplier (§4.6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..util import add_slots
from ..workloads.spec import FunctionSpec, QuotaType


@add_slots
@dataclass
class TokenBucket:
    """Token bucket whose rate can be re-evaluated at every check.

    Capacity is floored at ``min_tokens`` (for positive rates) so that
    low-RPS functions — e.g. a 0.05 RPS limit from a small quota — can
    still accumulate a whole token and execute at their trickle rate
    instead of starving forever.

    This class owns all bucket arithmetic: the quota gate, the AIMD
    gate and the client limiter check through :meth:`ready` or
    :meth:`try_take`, and every token given back goes through
    :meth:`refund`.
    """

    rate: float
    burst_s: float = 10.0
    min_tokens: float = 1.0
    tokens: float = 0.0
    last_refill: float = 0.0
    #: A pure function of ``rate``; written only by :meth:`set_rate`.
    capacity: float = field(init=False)

    def __post_init__(self) -> None:
        if self.burst_s <= 0:
            raise ValueError(f"burst_s must be positive, got {self.burst_s}")
        self.set_rate(self.rate)
        self.tokens = self.capacity

    def set_rate(self, rate: float) -> None:
        """Set the rate and its capacity; tokens are left as they are."""
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = rate
        self.capacity = (max(rate * self.burst_s, self.min_tokens)
                         if rate > 0 else 0.0)

    def ready(self, now: float, rate: float) -> bool:
        """Settle the bucket at ``now`` under ``rate``; True when a
        whole token is there.  Takes no token.

        Tokens accrued since the last check are settled at the old rate
        and capacity first.  The clip to the (new) capacity runs on
        every check: a refund can leave ``tokens`` above a capacity
        below one token.
        """
        cap = self.capacity
        tokens = self.tokens
        elapsed = now - self.last_refill
        if elapsed > 0:
            tokens += elapsed * self.rate
            if tokens > cap:
                tokens = cap
            self.last_refill = now
        if rate != self.rate:
            self.set_rate(rate)
            cap = self.capacity
        if tokens > cap:
            tokens = cap
        self.tokens = tokens
        return tokens >= 1.0

    def try_take(self, now: float) -> bool:
        """Take one token at the current rate; False means none is there."""
        if self.ready(now, self.rate):
            self.tokens -= 1.0
            return True
        return False

    def refund(self) -> None:
        """Give one token back (the gated dispatch was undone), up to
        the capacity or one token, whichever is larger."""
        cap = self.capacity
        if cap < 1.0:
            cap = 1.0
        tokens = self.tokens + 1.0
        self.tokens = tokens if tokens < cap else cap


@add_slots
@dataclass
class _FunctionQuota:
    spec: FunctionSpec
    prior_cost_minstr: float
    #: Weight (in samples) given to the registration-time prior.
    prior_weight: float = 20.0
    observed_total: float = 0.0
    observed_count: int = 0
    bucket: TokenBucket = field(init=False)
    #: Memoized ``base_rps``; invalidated by :meth:`record`.
    _base_rps_cache: Optional[float] = field(default=None, repr=False)
    #: Folded ``spec.quota_type is OPPORTUNISTIC`` for the acquire path.
    opportunistic: bool = field(init=False)

    def __post_init__(self) -> None:
        self.bucket = TokenBucket(rate=self.base_rps)
        self.opportunistic = self.spec.quota_type is QuotaType.OPPORTUNISTIC

    @property
    def avg_cost_minstr(self) -> float:
        """Prior-weighted cumulative mean of per-call cost.

        Per-call costs are heavy-tailed (Table 3: P99 ≫ mean), so an
        exponential moving average whips around with every tail sample
        and — via the harmonic-mean effect on quota ÷ cost — silently
        strangles the function's RPS limit.  A cumulative mean converges
        to the true mean and stays stable.
        """
        total = self.prior_cost_minstr * self.prior_weight + \
            self.observed_total
        count = self.prior_weight + self.observed_count
        return max(total / count, 1e-9)

    def record(self, cpu_minstr: float) -> None:
        self.observed_total += max(cpu_minstr, 0.0)
        self.observed_count += 1
        self._base_rps_cache = None

    @property
    def base_rps(self) -> float:
        """RPS limit from quota ÷ average per-call cost (§4.6.1)."""
        cached = self._base_rps_cache
        if cached is None:
            cached = self.spec.quota_minstr_per_s / self.avg_cost_minstr
            self._base_rps_cache = cached
        return cached


class CentralRateLimiter:
    """Global per-function RPS limiting from CPU quotas."""

    def __init__(self, initial_cost_minstr: float = 100.0) -> None:
        if initial_cost_minstr <= 0:
            raise ValueError("initial_cost_minstr must be positive")
        self.initial_cost_minstr = initial_cost_minstr
        self._functions: Dict[str, _FunctionQuota] = {}
        self.throttle_count = 0
        self.allow_count = 0

    # ------------------------------------------------------------------
    def register(self, spec: FunctionSpec,
                 expected_cost_minstr: Optional[float] = None) -> None:
        """Register a function; idempotent."""
        if spec.name in self._functions:
            return
        cost = expected_cost_minstr if expected_cost_minstr is not None \
            else self.initial_cost_minstr
        self._functions[spec.name] = _FunctionQuota(
            spec=spec, prior_cost_minstr=max(cost, 1e-9))

    def record_cost(self, name: str, cpu_minstr: float) -> None:
        """Fold one observed execution cost into the per-call average."""
        fq = self._functions.get(name)
        if fq is None:
            return
        fq.record(cpu_minstr)

    # ------------------------------------------------------------------
    def rps_limit(self, name: str, s_multiplier: float = 1.0) -> float:
        """Current RPS limit; opportunistic quota scales by S (§4.6.2)."""
        fq = self._require(name)
        if fq.spec.quota_type is QuotaType.OPPORTUNISTIC:
            return fq.base_rps * max(s_multiplier, 0.0)
        return fq.base_rps

    def try_acquire(self, name: str, now: float,
                    s_multiplier: float = 1.0) -> bool:
        """Take one invocation token; False means throttle/defer."""
        fq = self._functions.get(name)
        if fq is None:
            raise KeyError(f"function {name!r} not registered with rate limiter")
        return self.try_acquire_quota(fq, now, s_multiplier)

    def quota_for(self, name: str) -> _FunctionQuota:
        """Resolve a function's quota state once (scheduler sweeps gate
        many calls of the same function back to back)."""
        return self._require(name)

    def try_acquire_quota(self, fq: _FunctionQuota, now: float,
                          s_multiplier: float = 1.0) -> bool:
        """:meth:`try_acquire` on a pre-resolved :meth:`quota_for`."""
        limit = fq._base_rps_cache
        if limit is None:
            limit = fq.base_rps
        if fq.opportunistic:
            limit *= s_multiplier if s_multiplier > 0.0 else 0.0
        if limit <= 0:
            # S = 0: opportunistic scheduling is fully stopped (§4.6.2).
            self.throttle_count += 1
            return False
        bucket = fq.bucket
        if bucket.ready(now, limit):
            bucket.tokens -= 1.0
            self.allow_count += 1
            return True
        self.throttle_count += 1
        return False

    def avg_cost(self, name: str) -> float:
        return self._require(name).avg_cost_minstr

    def _require(self, name: str) -> _FunctionQuota:
        fq = self._functions.get(name)
        if fq is None:
            raise KeyError(f"function {name!r} not registered with rate limiter")
        return fq


class ClientRateLimiter:
    """Submitter-side per-client rate limiting (§4.2).

    Each client (keyed by team) gets a submission-rate bucket; spiky
    clients that exceed it are throttled unless they have been moved to
    the spiky submitter pool.
    """

    def __init__(self, default_rps: float = 1000.0, burst_s: float = 30.0) -> None:
        if default_rps <= 0:
            raise ValueError("default_rps must be positive")
        self.default_rps = default_rps
        self.burst_s = burst_s
        self._buckets: Dict[str, TokenBucket] = {}
        self.throttle_count = 0

    def set_limit(self, client: str, rps: float) -> None:
        """Replace a client's limit; the bucket restarts full (an
        operator-granted limit change takes effect immediately)."""
        bucket = self._bucket(client)
        bucket.set_rate(rps)
        bucket.tokens = bucket.capacity

    def try_acquire(self, client: str, now: float) -> bool:
        if self._bucket(client).try_take(now):
            return True
        self.throttle_count += 1
        return False

    def _bucket(self, client: str) -> TokenBucket:
        if client not in self._buckets:
            self._buckets[client] = TokenBucket(rate=self.default_rps,
                                                burst_s=self.burst_s)
        return self._buckets[client]
