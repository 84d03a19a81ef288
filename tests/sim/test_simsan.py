"""simsan unit tests: checking proxies forward exactly, violations raise.

The two halves of the sanitizer contract:

* **parity** — every wrapped surface (RNG streams, region maps) is
  bit-identical to the unwrapped one, up to and including a full
  sanitized dayrun digest;
* **detection** — out-of-order draws, unsorted region-map iteration,
  and lease-protocol violations raise :class:`SanitizeError`.
"""

import pytest

from repro.sim import (
    RegionMapProxy,
    RngRegistry,
    SanitizeError,
    SanitizedRngRegistry,
    SanitizedRngStream,
    Sanitizer,
    Simulator,
)

REGIONS = ("region-00", "region-01", "region-02")


class FakeClock:
    """A settable stand-in for the kernel clock."""

    def __init__(self, now=0.0):
        self.now = now


def make_sanitizer(now=0.0):
    return Sanitizer(FakeClock(now))


class TestStreamParity:
    """Sanitized streams must replay the exact unsanitized sequence."""

    def draws(self, stream):
        chooser = stream.weighted_chooser("xyz", [3.0, 1.0, 2.0])
        lst = [1, 2, 3, 4, 5]
        stream.shuffle(lst)
        return (
            stream.random(), stream.uniform(2.0, 5.0),
            stream.randint(1, 100), stream.expovariate(0.5),
            stream.lognormal(0.0, 1.0), stream.pareto(1.5, 2.0),
            stream.gauss(0.0, 1.0), stream.choice("abcdef"),
            tuple(stream.sample(range(50), 5)), tuple(lst),
            stream.weighted_choice("abc", [1.0, 2.0, 3.0]),
            tuple(chooser() for _ in range(10)),
            stream.poisson(4.2), stream.poisson(600.0),
        )

    def test_every_draw_method_is_bit_identical(self):
        plain = RngRegistry(123).stream("config-jitter/region-01/sched")
        sanitized = SanitizedRngRegistry(123, make_sanitizer()).stream(
            "config-jitter/region-01/sched")
        assert isinstance(sanitized, SanitizedRngStream)
        assert self.draws(plain) == self.draws(sanitized)

    def test_registry_memoizes_wrapped_streams(self):
        registry = SanitizedRngRegistry(7, make_sanitizer())
        assert registry.stream("a/b") is registry.stream("a/b")


class TestStreamChecks:
    def test_owned_and_replicated_streams_draw_fine(self):
        # Region-qualified and fleet-wide stream names are both legal.
        registry = SanitizedRngRegistry(7, make_sanitizer())
        for region in REGIONS:
            registry.stream(f"config-jitter/{region}/sched").random()
        registry.stream("arrivals").random()

    def test_backwards_draw_time_raises(self):
        clock = FakeClock(10.0)
        sanitizer = Sanitizer(clock)
        registry = SanitizedRngRegistry(7, sanitizer)
        stream = registry.stream("arrivals")
        stream.random()
        clock.now = 9.0
        with pytest.raises(SanitizeError, match="out-of-order"):
            stream.random()

    def test_equal_time_redraws_are_fine(self):
        registry = SanitizedRngRegistry(7, Sanitizer(FakeClock(5.0)))
        stream = registry.stream("arrivals")
        stream.random()
        stream.random()


class TestRegionMapProxy:
    def test_owned_and_nonregion_keys_pass(self):
        proxy = RegionMapProxy("m")
        proxy["region-00"] = 1
        assert proxy["region-00"] == 1
        proxy["not-a-region"] = 2
        assert proxy["not-a-region"] == 2

    def test_membership_and_len_are_unchecked(self):
        # Even out of sorted order, asking *whether* a key is present
        # (or how many there are) is order-independent and never raises.
        proxy = RegionMapProxy("m")
        proxy["region-01"] = "s"
        proxy["region-00"] = "t"
        assert "region-01" in proxy
        assert len(proxy) == 2

    def test_unrestricted_sanitizer_allows_everything(self):
        proxy = RegionMapProxy("m")
        proxy["region-02"] = 3
        assert proxy["region-02"] == 3
        del proxy["region-02"]
        assert "region-02" not in proxy

    def test_unsorted_iteration_raises(self):
        proxy = RegionMapProxy("m")
        proxy["region-01"] = 1
        proxy["region-00"] = 0
        with pytest.raises(SanitizeError, match="sorted"):
            list(proxy)
        with pytest.raises(SanitizeError):
            list(proxy.items())
        with pytest.raises(SanitizeError):
            list(proxy.values())

    def test_sorted_insertion_iterates_fine(self):
        proxy = RegionMapProxy("m")
        for r in sorted(REGIONS):
            proxy[r] = r
        assert list(proxy) == sorted(REGIONS)
        assert sorted(proxy.items()) == [(r, r) for r in sorted(REGIONS)]


class TestSimulatorWiring:
    def test_default_has_no_sanitizer(self):
        sim = Simulator(seed=1)
        assert sim.sanitizer is None
        assert not isinstance(sim.rng, SanitizedRngRegistry)

    def test_sanitize_wires_registry_and_sanitizer(self):
        sim = Simulator(seed=1, sanitize=True)
        assert sim.sanitizer is not None
        assert isinstance(sim.rng, SanitizedRngRegistry)
        assert isinstance(sim.rng.stream("x"), SanitizedRngStream)

    def test_kernel_rng_parity(self):
        a = Simulator(seed=42).rng.stream("s")
        b = Simulator(seed=42, sanitize=True).rng.stream("s")
        assert [a.random() for _ in range(20)] == \
            [b.random() for _ in range(20)]


class TestDayrunParity:
    def test_sanitized_dayrun_digest_is_bit_identical(self):
        # The hard guarantee: a full (scaled-down) scenario under the
        # sanitizer produces the exact trace digest of the plain run.
        from repro.scenarios import build_dayrun
        kwargs = dict(horizon_s=300.0, total_rate=2.0, n_functions=12,
                      n_regions=3)
        plain = build_dayrun(**kwargs)
        sanitized = build_dayrun(sanitize=True, **kwargs)
        assert sanitized.sim.sanitizer is not None
        assert plain.platform.traces.digest() == \
            sanitized.platform.traces.digest()


class TestLeaseGuard:
    """The lease state machine: DurableQ reports protocol events
    and the guard raises on the FSM's error transitions — injected via
    crafted handlers running inside a sanitized simulation."""

    def _queue(self):
        from repro.core import DurableQ, FunctionCall
        from repro.core.call import CallIdAllocator
        from repro.workloads import FunctionSpec

        sim = Simulator(sanitize=True)
        q = DurableQ(sim, "dq-test", "region-00")
        ids = CallIdAllocator()
        call = FunctionCall(spec=FunctionSpec(name="f"),
                            submit_time=sim.now, start_time=sim.now,
                            region_submitted="region-00",
                            call_id=ids.allocate())
        q.enqueue(call)
        return sim, q, call

    def test_double_ack_raises(self):
        sim, q, call = self._queue()

        def handler():
            [leased] = q.poll("s1", 1)
            q.ack(leased)
            q.ack(leased)

        sim.call_after(1.0, handler)
        with pytest.raises(SanitizeError, match="ACK of call .* ACKed"):
            sim.run_until(5.0)

    def test_extend_after_ack_raises(self):
        sim, q, call = self._queue()

        def handler():
            [leased] = q.poll("s1", 1)
            q.ack(leased)
            q.extend_lease(leased.call_id)

        sim.call_after(1.0, handler)
        with pytest.raises(SanitizeError, match="extend_lease of call"):
            sim.run_until(5.0)

    def test_ack_then_nack_raises(self):
        sim, q, call = self._queue()

        def handler():
            [leased] = q.poll("s1", 1)
            q.nack(leased, retry_delay_s=1.0)
            q.ack(leased)

        sim.call_after(1.0, handler)
        with pytest.raises(SanitizeError, match="ACK of call .* NACKed"):
            sim.run_until(5.0)

    def test_legal_lifecycle_is_silent(self):
        # nack -> redelivery -> second lease -> ack is the blessed
        # at-least-once path and must not trip the guard.
        sim, q, call = self._queue()
        done = []

        def first():
            [leased] = q.poll("s1", 1)
            q.extend_lease(leased.call_id)
            q.nack(leased, retry_delay_s=1.0)

        def second():
            [leased] = q.poll("s2", 1)
            q.ack(leased)
            done.append(leased.call_id)

        sim.call_after(1.0, first)
        sim.call_after(3.0, second)
        sim.run_until(5.0)
        q.stop()
        assert done == [call.call_id]

    def test_expired_lease_stays_tolerant(self):
        # Expiry forgets the call: the late ACK is a no-op (exactly
        # DurableQ's own behavior) and the re-lease + settle is legal.
        from repro.sim.simsan import LeaseGuard

        guard = LeaseGuard()
        guard.on_lease("dq", 7)
        guard.on_expire("dq", 7)
        guard.on_ack("dq", 7)        # late ack after expiry: tolerated
        guard.on_lease("dq", 7)      # redelivery to another scheduler
        guard.on_ack("dq", 7)
        with pytest.raises(SanitizeError):
            guard.on_ack("dq", 7)    # but a true double-ACK still raises

    def test_plain_run_has_no_guard(self):
        from repro.core import DurableQ

        sim = Simulator()
        q = DurableQ(sim, "dq-test", "region-00")
        assert q._lease_guard is None
