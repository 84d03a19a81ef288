"""Tests for the Scheduler: ordering, gates, flow control, retries (§4.4)."""

import math

import pytest

from repro.cluster import MachineSpec
from repro.core import (
    S_MULTIPLIER_KEY,
    TRAFFIC_MATRIX_KEY,
    CentralRateLimiter,
    ConfigStore,
    CongestionController,
    CongestionParams,
    DurableQ,
    FunctionCall,
    Scheduler,
    SchedulerParams,
    Worker,
    WorkerArrays,
    WorkerLB,
)
from repro.core.call import CallIdAllocator, CallOutcome, CallState
from repro.sim import Simulator
from repro.workloads import (
    Criticality,
    FunctionSpec,
    LogNormal,
    QuotaType,
    ResourceProfile,
    RetryPolicy,
)


def profile(cpu=10.0, mem=64.0, exec_s=0.5):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(mem), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


class Harness:
    """One-region scheduler rig with direct DurableQ access."""

    def __init__(self, seed=1, n_workers=2, threads=16, regions=("r0",),
                 sched_params=None, congestion_params=None):
        self.sim = Simulator(seed=seed)
        self.ids = CallIdAllocator()
        self.config = ConfigStore(self.sim, propagation_delay_s=0.0)
        self.rate_limiter = CentralRateLimiter(initial_cost_minstr=10.0)
        self.congestion = CongestionController(
            congestion_params or CongestionParams())
        self.dqs = {r: [DurableQ(self.sim, f"dq/{r}", r)] for r in regions}
        machine = MachineSpec(cores=8, core_mips=1000, threads=threads)
        self.store = WorkerArrays()
        self.workers = [Worker(self.sim, f"w{i}", "r0", machine=machine,
                               arrays=self.store)
                        for i in range(n_workers)]
        self.lb = WorkerLB(self.sim, "r0", self.store,
                           group_of_function=lambda f: 0,
                           n_groups_fn=lambda: 1)
        self.done = []
        self.scheduler = Scheduler(
            self.sim, "r0", self.dqs, self.lb, self.rate_limiter,
            self.congestion, self.config,
            sched_params or SchedulerParams(poll_interval_s=0.5),
            on_done=lambda c, o: self.done.append((c, o)))
        for w in self.workers:
            w.on_finish = self.scheduler.on_call_finished
        self.sim.every(60.0, lambda: self.congestion.adjust(self.sim.now))

    def register(self, spec, cost=10.0):
        self.rate_limiter.register(spec, expected_cost_minstr=cost)
        self.congestion.register(spec)

    def enqueue(self, spec, region="r0", start_delay=0.0, source_level=0):
        call = FunctionCall(spec=spec, submit_time=self.sim.now,
                            start_time=self.sim.now + start_delay,
                            region_submitted=region,
                            source_level=source_level,
                            call_id=self.ids.allocate())
        self.dqs[region][0].enqueue(call)
        return call


class TestBasicFlow:
    def test_end_to_end_completion(self):
        h = Harness()
        spec = FunctionSpec(name="f", profile=profile())
        h.register(spec)
        call = h.enqueue(spec)
        h.sim.run_until(10.0)
        assert call.state is CallState.COMPLETED
        assert call.outcome is CallOutcome.OK
        assert h.scheduler.completed_count == 1
        assert h.done[0][1] is CallOutcome.OK

    def test_future_start_time_honored(self):
        h = Harness()
        spec = FunctionSpec(name="f", profile=profile())
        h.register(spec)
        call = h.enqueue(spec, start_delay=100.0)
        h.sim.run_until(50.0)
        assert call.state is CallState.QUEUED
        h.sim.run_until(150.0)
        assert call.state is CallState.COMPLETED

    def test_criticality_order_under_scarce_capacity(self):
        # One thread: the CRITICAL call must run before the LOW ones
        # even though it was enqueued last.
        h = Harness(n_workers=1, threads=1)
        low = FunctionSpec(name="low", criticality=Criticality.LOW,
                           profile=profile(exec_s=2.0))
        crit = FunctionSpec(name="crit", criticality=Criticality.CRITICAL,
                            profile=profile(exec_s=2.0))
        h.register(low)
        h.register(crit)
        low_calls = [h.enqueue(low) for _ in range(3)]
        crit_call = h.enqueue(crit)
        h.sim.run_until(30.0)
        finished = [c for c, o in h.done]
        # The critical call finishes before at least two LOW calls.
        crit_pos = finished.index(crit_call)
        assert crit_pos <= 1

    def test_deadline_order_within_criticality(self):
        h = Harness(n_workers=1, threads=1)
        relaxed = FunctionSpec(name="relaxed", deadline_s=3600.0,
                               profile=profile(exec_s=1.0))
        urgent = FunctionSpec(name="urgent", deadline_s=10.0,
                              profile=profile(exec_s=1.0))
        h.register(relaxed)
        h.register(urgent)
        r = h.enqueue(relaxed)
        u = h.enqueue(urgent)
        h.sim.run_until(10.0)
        finished = [c for c, o in h.done]
        assert finished.index(u) < finished.index(r)


class TestGates:
    def test_quota_throttles_excess(self):
        h = Harness(n_workers=2, threads=16)
        spec = FunctionSpec(name="f", quota_minstr_per_s=10.0,
                            profile=profile(cpu=10.0, exec_s=0.05))
        h.register(spec, cost=10.0)  # → 1 RPS limit
        for _ in range(100):
            h.enqueue(spec)
        h.sim.run_until(30.0)
        # ~burst (10) + 1/s × 30 s ≈ 40 completions max.
        assert h.scheduler.completed_count <= 45
        assert h.scheduler.deferred_gate_hits > 0

    def test_quota_refusal_returns_aimd_token(self):
        # §5.5 brownout under quota pressure: AIMD cuts f to 0.1 RPS and
        # the quota (0.001 RPS) is tighter still.  A pass the quota gate
        # refuses dispatched nothing, so it must spend no AIMD token:
        # once the AIMD bucket refills, it stays full.
        h = Harness()
        spec = FunctionSpec(name="f", quota_minstr_per_s=0.01,
                            profile=profile(exec_s=0.05))
        h.register(spec, cost=10.0)
        h.congestion.on_backpressure("f", "svc", 1e6)  # cut at t=0
        for _ in range(5):
            h.enqueue(spec)
        h.sim.run_until(20.0)
        state = h.congestion.state_for("f")
        assert state.rps_limit == 0.1
        assert h.scheduler.completed_count == 1
        denials = h.congestion.rate_denials
        h.sim.run_until(50.0)
        assert h.scheduler.completed_count == 1
        assert h.scheduler.deferred_gate_hits > 60
        assert h.congestion.rate_denials == denials
        assert state.bucket.tokens == 1.0

    def test_opportunistic_stopped_when_s_zero(self):
        h = Harness()
        h.config.publish(S_MULTIPLIER_KEY, 0.0)
        # Wait for the scheduler's cached config to pick up S=0 (the
        # cache refresh is part of the design, §4.1).
        h.sim.run_until(15.0)
        spec = FunctionSpec(name="opp", quota_type=QuotaType.OPPORTUNISTIC,
                            profile=profile())
        h.register(spec)
        h.enqueue(spec)
        h.sim.run_until(90.0)
        assert h.scheduler.completed_count == 0

    def test_opportunistic_resumes_when_s_rises(self):
        h = Harness()
        h.config.publish(S_MULTIPLIER_KEY, 0.0)
        spec = FunctionSpec(name="opp", quota_type=QuotaType.OPPORTUNISTIC,
                            profile=profile())
        h.register(spec)
        call = h.enqueue(spec)
        h.sim.run_until(60.0)
        h.config.publish(S_MULTIPLIER_KEY, 1.0)
        h.sim.run_until(120.0)
        assert call.state is CallState.COMPLETED

    def test_concurrency_limit_respected(self):
        h = Harness(n_workers=2, threads=16)
        spec = FunctionSpec(name="f", concurrency_limit=2,
                            profile=profile(exec_s=5.0))
        h.register(spec)
        for _ in range(10):
            h.enqueue(spec)
        h.sim.run_until(4.0)
        running = sum(w.running_count for w in h.workers)
        assert running == 2

    def test_isolation_denied_terminally(self):
        h = Harness()
        spec = FunctionSpec(name="f", isolation_level=0, profile=profile())
        h.register(spec)
        call = h.enqueue(spec, source_level=3)
        h.sim.run_until(10.0)
        assert call.outcome is CallOutcome.ISOLATION_DENIED
        assert h.scheduler.isolation_denials == 1
        # Terminal: removed from the DurableQ, no retry.
        assert h.dqs["r0"][0].pending_count == 0


class TestFlowControl:
    def test_runq_buildup_pauses_polling(self):
        # Tiny workers: the RunQ fills, polling stops, backlog stays in
        # the DurableQ (§4.4 flow control).
        h = Harness(n_workers=1, threads=1,
                    sched_params=SchedulerParams(poll_interval_s=0.5,
                                                 runq_capacity=5,
                                                 buffer_capacity=20))
        spec = FunctionSpec(name="f", profile=profile(exec_s=30.0))
        h.register(spec)
        for _ in range(100):
            h.enqueue(spec)
        h.sim.run_until(10.0)
        assert len(h.scheduler.runq) <= 5
        assert h.scheduler.buffered_count <= 20
        assert h.dqs["r0"][0].pending_count >= 70

    def test_completion_kick_dispatches_promptly(self):
        h = Harness(n_workers=1, threads=1)
        spec = FunctionSpec(name="f", profile=profile(exec_s=1.0))
        h.register(spec)
        for _ in range(3):
            h.enqueue(spec)
        h.sim.run_until(10.0)
        assert h.scheduler.completed_count == 3


class TestRetries:
    def test_worker_error_nacked_and_retried(self):
        h = Harness()
        spec = FunctionSpec(name="f", profile=profile(),
                            retry_policy=RetryPolicy(max_attempts=3,
                                                     retry_delay_s=1.0))
        h.register(spec)
        call = h.enqueue(spec)
        # Force the first completion to report an error.
        original = h.scheduler.on_call_finished
        fail_once = {"done": False}

        def flaky(c, outcome):
            if not fail_once["done"] and c is call:
                fail_once["done"] = True
                original(c, CallOutcome.ERROR)
            else:
                original(c, outcome)
        for w in h.workers:
            w.on_finish = flaky
        h.sim.run_until(30.0)
        assert call.state is CallState.COMPLETED
        assert call.attempts == 1  # one NACK before success

    def test_retried_call_leaves_inflight_map(self):
        # A NACKed call belongs to the DurableQ again; a stale in-flight
        # entry would make _extend_leases renew a lease that another
        # scheduler may now hold.
        h = Harness()
        spec = FunctionSpec(name="f", profile=profile(),
                            retry_policy=RetryPolicy(max_attempts=3,
                                                     retry_delay_s=1.0))
        h.register(spec)
        call = h.enqueue(spec)
        shard = h.dqs["r0"][0]
        sched = h.scheduler
        original = sched.on_call_finished
        seen = []

        def fail_first(c, outcome):
            if not seen:
                assert c.call_id in sched._inflight
                leased = shard.leased_count
                original(c, CallOutcome.ERROR)
                seen.append((c.call_id in sched._inflight,
                             leased - shard.leased_count))
            else:
                original(c, outcome)
        for w in h.workers:
            w.on_finish = fail_first
        h.sim.run_until(30.0)
        assert seen == [(False, 1)]
        assert call.state is CallState.COMPLETED
        assert sched._inflight == {}

    def test_retries_exhausted_fails(self):
        h = Harness()
        spec = FunctionSpec(name="f", profile=profile(),
                            retry_policy=RetryPolicy(max_attempts=2,
                                                     retry_delay_s=0.5))
        h.register(spec)
        call = h.enqueue(spec)
        original = h.scheduler.on_call_finished
        for w in h.workers:
            w.on_finish = lambda c, o: original(c, CallOutcome.ERROR)
        h.sim.run_until(60.0)
        assert call.state is CallState.FAILED
        assert h.scheduler.failed_count == 1


class TestCrossRegion:
    def test_traffic_matrix_pulls_remote_work(self):
        h = Harness(regions=("r0", "r1"))
        h.config.publish(TRAFFIC_MATRIX_KEY,
                         {"r0": {"r0": 0.5, "r1": 0.5}})
        spec = FunctionSpec(name="f", profile=profile())
        h.register(spec)
        call = h.enqueue(spec, region="r1")
        h.sim.run_until(30.0)
        assert call.state is CallState.COMPLETED
        assert h.scheduler.cross_region_pulls > 0
        assert call.scheduler_region == "r0"
        assert call.durableq_region == "r1"

    def test_no_matrix_stays_local(self):
        h = Harness(regions=("r0", "r1"))
        spec = FunctionSpec(name="f", profile=profile())
        h.register(spec)
        call = h.enqueue(spec, region="r1")
        h.sim.run_until(10.0)
        assert call.state is CallState.QUEUED  # nobody pulls r1


class TestSchedulerParams:
    """Values that would stall a run without a word are refused."""

    @pytest.mark.parametrize("poll_batch_max", [0, -1])
    def test_poll_batch_max_below_one_rejected(self, poll_batch_max):
        # 0 polls nothing: no call ever leaves the DurableQs.
        with pytest.raises(ValueError, match="poll_batch_max"):
            SchedulerParams(poll_batch_max=poll_batch_max)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_per_function_buffer_cap_below_one_rejected(self, cap):
        # 0 marks every function saturated, so polling skips them all.
        with pytest.raises(ValueError, match="per_function_buffer_cap"):
            SchedulerParams(per_function_buffer_cap=cap)

    @pytest.mark.parametrize("interval", [0.0, -60.0, math.nan])
    def test_non_positive_lease_extension_interval_rejected(self, interval):
        # Raised here, not by the kernel from inside Scheduler.__init__.
        with pytest.raises(ValueError, match="lease_extension_interval_s"):
            SchedulerParams(lease_extension_interval_s=interval)

    def test_smallest_valid_values_accepted(self):
        p = SchedulerParams(poll_batch_max=1, per_function_buffer_cap=1,
                            lease_extension_interval_s=1e-3)
        assert p.poll_batch_max == 1
