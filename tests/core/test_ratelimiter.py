"""Tests for quotas and the Central Rate Limiter (§4.6.1)."""

import random

import pytest

from repro.core import CentralRateLimiter, ClientRateLimiter, TokenBucket
from repro.workloads import FunctionSpec, QuotaType


class TestTokenBucket:
    def test_starts_full(self):
        b = TokenBucket(rate=10.0, burst_s=2.0)
        assert b.tokens == pytest.approx(20.0)

    def test_take_and_refill(self):
        b = TokenBucket(rate=1.0, burst_s=5.0)
        for _ in range(5):
            assert b.try_take(0.0)
        assert not b.try_take(0.0)
        assert b.try_take(1.0)  # one second refills one token

    def test_capacity_floored_at_one_token(self):
        # Regression: low-RPS functions must not starve forever.
        b = TokenBucket(rate=0.05, burst_s=10.0)
        assert b.capacity >= 1.0
        assert b.try_take(0.0)
        assert not b.try_take(1.0)
        assert b.try_take(21.0)  # 0.05/s × 20 s ≥ 1 token again

    def test_zero_rate_blocks(self):
        b = TokenBucket(rate=0.0)
        assert not b.try_take(0.0)
        assert not b.try_take(1000.0)

    def test_set_rate_settles_tokens_first(self):
        b = TokenBucket(rate=10.0, burst_s=1.0)
        for _ in range(10):
            b.try_take(0.0)
        b.ready(1.0, 100.0)  # accrue 10 tokens at old rate first
        assert b.tokens == pytest.approx(10.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0)


def _frozen_capacity(rate, burst_s, min_tokens):
    if rate <= 0:
        return 0.0
    cap = rate * burst_s
    if cap < min_tokens:
        cap = min_tokens
    return cap


def _frozen_settle(b, now, rate):
    """The settle-and-cap arithmetic the quota and AIMD gates each
    inlined before the bucket owned it, on a plain dict ``b``."""
    tokens = b["tokens"]
    old_rate = b["rate"]
    elapsed = now - b["last_refill"]
    if elapsed > 0:
        cap = _frozen_capacity(old_rate, b["burst_s"], b["min_tokens"])
        tokens += elapsed * old_rate
        if tokens > cap:
            tokens = cap
        b["last_refill"] = now
    b["rate"] = rate
    cap = _frozen_capacity(rate, b["burst_s"], b["min_tokens"])
    if tokens > cap:
        tokens = cap
    return tokens


def _frozen_set_rate_and_take(b, now, rate):
    tokens = _frozen_settle(b, now, rate)
    if tokens >= 1.0:
        b["tokens"] = tokens - 1.0
        return True
    b["tokens"] = tokens
    return False


def _frozen_aimd_gate(b, now, rate):
    tokens = _frozen_settle(b, now, rate)
    b["tokens"] = tokens
    return tokens >= 1.0


def _frozen_refund(b):
    cap = _frozen_capacity(b["rate"], b["burst_s"], b["min_tokens"])
    b["tokens"] = min(b["tokens"] + 1.0, max(cap, 1.0))


class TestTokenBucketBitExact:
    """``ready``, ``try_take`` and ``refund`` reproduce, float for
    float, the bucket arithmetic the gates used to inline."""

    RATES = (0.0, 0.02, 0.05, 0.5, 1.0, 3.0, 250.0)

    def _script(self, rng):
        burst_s = rng.choice((0.5, 1.0, 10.0))
        min_tokens = rng.choice((0.25, 0.5, 1.0, 2.0))
        rate = rng.choice(self.RATES)
        bucket = TokenBucket(rate=rate, burst_s=burst_s,
                             min_tokens=min_tokens)
        frozen = {"rate": rate, "burst_s": burst_s,
                  "min_tokens": min_tokens, "last_refill": 0.0,
                  "tokens": _frozen_capacity(rate, burst_s, min_tokens)}
        now = 0.0
        for _ in range(80):
            # Time stands still, steps back or moves on (elapsed <= 0
            # must settle nothing).
            now += rng.choice((-1.5, 0.0, 0.0, 0.01, 0.7, 4.0, 60.0))
            rate = (frozen["rate"] if rng.random() < 0.4
                    else rng.choice(self.RATES))
            op = rng.choice(("take", "gate", "try_take", "refund",
                             "refund"))
            if op == "take":
                got = bucket.ready(now, rate)
                if got:
                    bucket.tokens -= 1.0
                want = _frozen_set_rate_and_take(frozen, now, rate)
            elif op == "gate":
                got = bucket.ready(now, rate)
                want = _frozen_aimd_gate(frozen, now, rate)
            elif op == "try_take":
                got = bucket.try_take(now)
                want = _frozen_set_rate_and_take(frozen, now,
                                                 frozen["rate"])
            else:
                bucket.refund()
                _frozen_refund(frozen)
                got = want = None
            assert got == want, (op, now, rate)
            assert bucket.tokens == frozen["tokens"], (op, now, rate)
            assert bucket.rate == frozen["rate"]
            assert bucket.last_refill == frozen["last_refill"]
            assert bucket.capacity == _frozen_capacity(
                frozen["rate"], burst_s, min_tokens)

    def test_random_sequences_match_frozen_arithmetic(self):
        rng = random.Random(20231023)
        for _ in range(400):
            self._script(rng)

    def test_refund_over_small_capacity_is_clipped_at_same_rate(self):
        # A refund may leave tokens above a capacity below one token;
        # the next check at the same time and rate must clip them.
        bucket = TokenBucket(rate=0.05, burst_s=10.0, min_tokens=0.5)
        assert bucket.capacity == 0.5
        bucket.refund()
        assert bucket.tokens == 1.0
        assert not bucket.ready(0.0, 0.05)
        assert bucket.tokens == 0.5


class TestCentralRateLimiter:
    def _spec(self, quota=1000.0, quota_type=QuotaType.RESERVED, name="f"):
        return FunctionSpec(name=name, quota_minstr_per_s=quota,
                            quota_type=quota_type)

    def test_rps_from_quota_over_cost(self):
        # §4.6.1: RPS limit = quota / average cost per invocation.
        limiter = CentralRateLimiter(initial_cost_minstr=100.0)
        limiter.register(self._spec(quota=1000.0))
        assert limiter.rps_limit("f") == pytest.approx(10.0)

    def test_observed_costs_update_limit(self):
        limiter = CentralRateLimiter(initial_cost_minstr=100.0)
        limiter.register(self._spec(quota=1000.0))
        # Flood with observations: the cumulative mean converges to the
        # observed cost, dominating the registration prior.
        for _ in range(2000):
            limiter.record_cost("f", 500.0)
        assert limiter.rps_limit("f") == pytest.approx(2.0, rel=0.02)

    def test_single_tail_sample_does_not_crater_limit(self):
        # Heavy-tail robustness: one 5M-instr call must not collapse
        # the limit (the EMA failure mode this design replaced).
        limiter = CentralRateLimiter(initial_cost_minstr=100.0)
        limiter.register(self._spec(quota=1000.0))
        for _ in range(200):
            limiter.record_cost("f", 100.0)
        before = limiter.rps_limit("f")
        limiter.record_cost("f", 5.0e6)
        after = limiter.rps_limit("f")
        assert after > before * 0.004  # EMA with α=0.05 would cut ~2500x
        assert after == pytest.approx(
            1000.0 / ((220 * 100.0 + 5.0e6) / 221), rel=1e-6)

    def test_opportunistic_scaled_by_s(self):
        # §4.6.2: r = r0 × S for opportunistic functions.
        limiter = CentralRateLimiter(initial_cost_minstr=100.0)
        limiter.register(self._spec(quota=1000.0,
                                    quota_type=QuotaType.OPPORTUNISTIC))
        assert limiter.rps_limit("f", s_multiplier=0.5) == pytest.approx(5.0)
        assert limiter.rps_limit("f", s_multiplier=0.0) == 0.0

    def test_reserved_ignores_s(self):
        limiter = CentralRateLimiter(initial_cost_minstr=100.0)
        limiter.register(self._spec(quota=1000.0))
        assert limiter.rps_limit("f", s_multiplier=0.0) == pytest.approx(10.0)

    def test_throttling_over_limit(self):
        limiter = CentralRateLimiter(initial_cost_minstr=100.0)
        limiter.register(self._spec(quota=100.0))  # 1 RPS, burst 10
        grants = sum(1 for _ in range(50) if limiter.try_acquire("f", 0.0))
        assert grants == 10  # burst capacity only
        assert limiter.throttle_count == 40

    def test_s_zero_stops_opportunistic(self):
        limiter = CentralRateLimiter(initial_cost_minstr=100.0)
        limiter.register(self._spec(quota=1.0e6,
                                    quota_type=QuotaType.OPPORTUNISTIC))
        assert not limiter.try_acquire("f", 100.0, s_multiplier=0.0)

    def test_register_idempotent(self):
        limiter = CentralRateLimiter()
        spec = self._spec()
        limiter.register(spec, expected_cost_minstr=50.0)
        limiter.register(spec, expected_cost_minstr=999.0)
        assert limiter.avg_cost("f") == 50.0

    def test_unknown_function_raises(self):
        with pytest.raises(KeyError):
            CentralRateLimiter().rps_limit("missing")


class TestClientRateLimiter:
    def test_default_limit_allows_normal_traffic(self):
        limiter = ClientRateLimiter(default_rps=10.0, burst_s=1.0)
        assert limiter.try_acquire("team", 0.0)

    def test_burst_exhaustion_throttles(self):
        limiter = ClientRateLimiter(default_rps=1.0, burst_s=2.0)
        assert limiter.try_acquire("t", 0.0)
        assert limiter.try_acquire("t", 0.0)
        assert not limiter.try_acquire("t", 0.0)
        assert limiter.throttle_count == 1

    def test_per_client_isolation(self):
        limiter = ClientRateLimiter(default_rps=1.0, burst_s=1.0)
        assert limiter.try_acquire("a", 0.0)
        assert limiter.try_acquire("b", 0.0)  # b unaffected by a

    def test_set_limit(self):
        limiter = ClientRateLimiter(default_rps=1.0, burst_s=1.0)
        limiter.set_limit("vip", 100.0)
        grants = sum(1 for _ in range(150)
                     if limiter.try_acquire("vip", 0.0))
        assert grants == 100
