"""Scheduler: criticality/deadline/quota-ordered dispatch (§4.4, §4.6).

Each region's scheduler periodically:

1. **Polls DurableQs** — its own region's and, per the Global Traffic
   Conductor's traffic matrix, other regions' — for ready calls, leasing
   them into per-function :class:`FuncBuffer`s ordered by (criticality,
   deadline).
2. **Moves calls into the RunQ**, selecting the most suitable head among
   all FuncBuffers subject to the scheduling gates: quota tokens from
   the Central Rate Limiter (opportunistic functions scaled by the
   Utilization Controller's S), AIMD back-pressure limits, slow start,
   per-function concurrency limits, and Bell–LaPadula flow checks.
   Calls whose gates fail simply stay buffered/queued — that *is* the
   deferral mechanism behind time-shifting.
3. **Drains the RunQ** through the WorkerLB.  A RunQ that builds up
   throttles both buffer movement and DurableQ polling (flow control).

On completion the scheduler ACKs the call's DurableQ; failures NACK for
at-least-once redelivery up to the function's retry policy.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.kernel import Simulator
from ..sim.sampler import SamplerHub
from .call import CallOutcome, CallState, FunctionCall
from .config import CachedConfig, ConfigStore
from .congestion import CongestionController, _FunctionState
from .durableq import DurableQ
from .funcbuffer import BufferEntry, FuncBuffer
from .ratelimiter import CentralRateLimiter, _FunctionQuota
from .runq import RunQ
from .workerlb import WorkerLB

TRAFFIC_MATRIX_KEY = "gtc/traffic_matrix"
S_MULTIPLIER_KEY = "utilization/S"

DoneCallback = Callable[[FunctionCall, CallOutcome], None]
#: A function's resolved (congestion state, quota) pair.
Gates = Tuple[_FunctionState, _FunctionQuota]

#: Head-key extractor for the per-pass buffer ordering (head entries
#: embed the unique call id, so ties — and a comparison falling through
#: to the call or the FuncBuffer operand — cannot occur).
_HEAD_KEY = operator.itemgetter(0)


@dataclass(frozen=True)
class SchedulerParams:
    """Polling cadence and buffer/RunQ capacities."""

    poll_interval_s: float = 1.0
    poll_batch_max: int = 500
    runq_capacity: int = 1000
    #: Maximum total calls held across FuncBuffers; beyond this, polling
    #: pauses and backlog stays in the DurableQs.
    buffer_capacity: int = 5000
    #: Per-function FuncBuffer cap.  A function gated off (quota, AIMD,
    #: slow start) keeps at most this many calls buffered; the rest stay
    #: in the DurableQs so one throttled high-rate function can never
    #: exhaust the shared buffer budget and stall polling for everyone.
    per_function_buffer_cap: int = 100
    lease_extension_interval_s: float = 60.0

    def __post_init__(self) -> None:
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.runq_capacity < 1 or self.buffer_capacity < 1:
            raise ValueError("capacities must be >= 1")
        # Each of these stalls a run in silence: no call is ever polled,
        # no call is ever buffered, or the lease timer cannot be armed.
        if self.poll_batch_max < 1:
            raise ValueError("poll_batch_max must be >= 1")
        if self.per_function_buffer_cap < 1:
            raise ValueError("per_function_buffer_cap must be >= 1")
        if not self.lease_extension_interval_s > 0:
            raise ValueError("lease_extension_interval_s must be positive")


class Scheduler:
    """One region's scheduler (stateless role; state lives in DurableQs)."""

    def __init__(self, sim: Simulator, region: str,
                 durableqs_by_region: Dict[str, List[DurableQ]],
                 workerlb: WorkerLB,
                 rate_limiter: CentralRateLimiter,
                 congestion: CongestionController,
                 config: ConfigStore,
                 params: SchedulerParams = SchedulerParams(),
                 on_done: Optional[DoneCallback] = None,
                 timers: Optional[SamplerHub] = None) -> None:
        self.sim = sim
        self.region = region
        self.scheduler_id = f"scheduler/{region}"
        self.durableqs_by_region = durableqs_by_region
        self.workerlb = workerlb
        self.rate_limiter = rate_limiter
        self.congestion = congestion
        self.params = params
        self.on_done = on_done

        self._buffers: Dict[str, FuncBuffer] = {}
        self._buffered_total = 0
        #: function name → (congestion state, quota), filled by
        #: :meth:`_resolve_gates`.
        self._gate_states: Dict[str, Gates] = {}
        self.runq = RunQ(capacity=params.runq_capacity)
        #: call_id → DurableQ holding its lease (for ACK/NACK/extension).
        self._inflight: Dict[int, Tuple[FunctionCall, DurableQ]] = {}

        self._traffic = CachedConfig(sim, config, TRAFFIC_MATRIX_KEY,
                                     default={region: {region: 1.0}})
        self._s_multiplier = CachedConfig(sim, config, S_MULTIPLIER_KEY,
                                          default=1.0)

        self.dispatched_count = 0
        self.completed_count = 0
        self.failed_count = 0
        #: Always 0: no call expires in the pipeline.  Kept because
        #: ``benchmarks/xbench/workloads.py`` reads it.
        self.expired_count = 0
        self.deferred_gate_hits = 0
        self.isolation_denials = 0
        self.cross_region_pulls = 0

        self._tick_task = sim.every(params.poll_interval_s, self.tick,
                                    jitter=params.poll_interval_s * 0.05,
                                    rng_stream=f"sched-jitter/{region}")
        lease_timers = timers if timers is not None else sim
        self._lease_task = lease_timers.every(
            params.lease_extension_interval_s, self._extend_leases)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def tick(self) -> None:
        # Recycle anything still parked in the RunQ from the previous
        # tick: parked calls must not sit for hours holding stale gate
        # tokens — they go back to their FuncBuffers (tokens refunded)
        # and are re-gated by this tick's pass at current limits.
        self._recycle_runq()
        self._poll_durableqs()
        self._schedule_pass()

    def _recycle_runq(self) -> None:
        # Every parked call goes back to its FuncBuffer, its gate tokens
        # refunded; the RunQ and FuncBuffer heaps share one entry layout
        # (funcbuffer.py), so each entry moves as it is.
        heap = self.runq._heap
        demote = self._demote
        while heap:
            demote(heapq.heappop(heap))

    def kick(self) -> None:
        """Worker capacity freed: dispatch already-gated calls.

        Deliberately cheap (no buffer re-scan): refills happen on the
        periodic tick, keeping the completion path O(1).
        """
        self._drain_runq()

    # ------------------------------------------------------------------
    # Step 1: poll DurableQs per the GTC traffic matrix
    # ------------------------------------------------------------------
    def _poll_durableqs(self) -> None:
        p = self.params
        # Flow control (§4.4): a building RunQ slows retrieval.
        headroom = min(p.buffer_capacity - self._buffered_total,
                       p.poll_batch_max)
        runq_slack = 1.0 - self.runq.fill_fraction()
        budget = int(headroom * max(runq_slack, 0.0))
        if budget <= 0:
            return
        cap = self.params.per_function_buffer_cap
        # len(buf._heap) is FuncBuffer.__len__ without its frame: both
        # scans below run every tick over every buffer and polled call.
        saturated = {name for name, buf in self._buffers.items()
                     if len(buf._heap) >= cap}
        row = self._traffic_row()
        for src_region, fraction in sorted(row.items()):
            if fraction <= 0:
                continue
            region_budget = max(1, int(budget * fraction))
            shards = self.durableqs_by_region.get(src_region, [])
            if not shards:
                continue
            if src_region != self.region:
                self.cross_region_pulls += 1
            per_shard = max(1, region_budget // len(shards))
            for shard in shards:
                calls = shard.poll(self.scheduler_id, per_shard,
                                   skip=saturated)
                for call in calls:
                    self._buffer_call(call, shard)
                    buf = self._buffers[call.function_name]
                    if len(buf._heap) >= cap:
                        saturated.add(call.function_name)

    #: Minimum fraction of the polling budget always spent on the local
    #: region, whatever the traffic matrix says.  XFaaS prioritizes
    #: local-region execution (§4.1); this also guarantees that freshly
    #: submitted local calls are never starved between GTC updates.
    MIN_LOCAL_FRACTION = 0.2

    def _traffic_row(self) -> Dict[str, float]:
        matrix = self._traffic.value or {}
        row = matrix.get(self.region)
        if not row:
            return {self.region: 1.0}
        local = row.get(self.region, 0.0)
        if local >= self.MIN_LOCAL_FRACTION:
            return row
        scale = ((1.0 - self.MIN_LOCAL_FRACTION) /
                 max(sum(f for r, f in row.items() if r != self.region),
                     1e-9))
        adjusted = {r: f * scale for r, f in row.items() if r != self.region}
        adjusted[self.region] = self.MIN_LOCAL_FRACTION
        return adjusted

    def accept_remote(self, call: FunctionCall, shard: DurableQ) -> None:
        """Buffer a call leased from ``shard`` outside this scheduler's poll.

        ``shard`` is duck-typed: anything with the DurableQ
        ``ack``/``nack``/``extend_lease`` surface settles the lease.
        The call joins this scheduler's FuncBuffers exactly as a
        locally polled call would.
        """
        self._buffer_call(call, shard)

    def _buffer_call(self, call: FunctionCall, shard: DurableQ) -> None:
        call.scheduler_region = self.region
        self._inflight[call.call_id] = (call, shard)
        buffer = self._buffers.get(call.function_name)
        if buffer is None:
            buffer = FuncBuffer(call.function_name)
            self._buffers[call.function_name] = buffer
        buffer.push(call)
        self._buffered_total += 1

    # ------------------------------------------------------------------
    # Step 2+3 interleaved: FuncBuffers → (gates) → workers, best first
    # ------------------------------------------------------------------
    #: Once the RunQ pipeline is full: how many further placement
    #: failures of one function are tolerated (demoted) before moving
    #: on — an unplaceable heavy head must not block lighter calls.
    PLACEMENT_LOOKAHEAD = 4
    #: How many gated-but-unplaced calls may park in the RunQ awaiting
    #: a freed worker.  This is the dispatch *pipeline*: completions
    #: between ticks immediately pull parked calls via kick(), keeping
    #: workers busy instead of idling until the next tick.  Parked
    #: calls hold their quota tokens for at most one tick (recycled).
    PARK_LIMIT = 64

    def _schedule_pass(self) -> None:
        """One scheduling sweep: gate and dispatch in a single motion.

        Gating and dispatch are interleaved per call — a call that
        passes the quota/AIMD gates but cannot be placed is demoted with
        its tokens refunded *immediately*, so unplaceable calls can
        never hoard the per-function token stream away from placeable
        ones (they would otherwise re-grab the fresh tokens every tick).
        """
        now = self.sim._now
        s_mult = float(self._s_multiplier.value)
        # Order buffers by their head entry, whose leading slots are the
        # head call's sort key (heap internals read directly: this runs
        # for every buffer, empty or not, every tick).
        heads = sorted(((buf._heap[0], buf)
                        for buf in self._buffers.values() if buf._heap),
                       key=_HEAD_KEY)
        if not heads:
            return
        # Pass-invariant bindings, hoisted across every function swept.
        congestion = self.congestion
        can_dispatch_state = congestion.can_dispatch_state
        on_dispatch = congestion.on_dispatch
        try_acquire = self.rate_limiter.try_acquire_quota
        dispatch = self.workerlb.dispatch
        # Parking pushes the popped buffer entry onto the RunQ heap, up
        # to PARK_LIMIT calls and never past the RunQ's capacity.
        runq_heap = self.runq._heap
        park_cap = min(self.PARK_LIMIT, self.runq.capacity)
        heappop_ = heapq.heappop
        heappush_ = heapq.heappush
        lookahead = self.PLACEMENT_LOOKAHEAD
        gate_states = self._gate_states
        for _, buffer in heads:
            # Every call in a buffer shares one function: its congestion
            # state and quota are resolved once per buffer.
            name = buffer.function_name
            gates = gate_states.get(name)
            if gates is None:
                gates = self._resolve_gates(name)
            cong_st, quota = gates
            # The per-call loop runs over the buffer's heap directly —
            # the peek/len indirections cost more than the loop body
            # under a full sweep.  A terminal check finalizes before it
            # pops.
            heap = buffer._heap
            placement_failures = 0
            deferred: List[BufferEntry] = []
            while heap:
                head = heap[0]
                call = head[3]
                spec = call.spec
                if call.source_level > spec.isolation_level:
                    self.isolation_denials += 1
                    self._finalize(call, CallOutcome.ISOLATION_DENIED)
                    heappop_(heap)
                    self._buffered_total -= 1
                    continue  # terminal; next call
                if not (can_dispatch_state(cong_st, now)
                        and try_acquire(quota, now, s_mult)):
                    self.deferred_gate_hits += 1
                    break  # function-level rate gate: defer the rest
                heappop_(heap)
                self._buffered_total -= 1
                # Both gates passed: take the AIMD token and count the
                # dispatch.
                cong_st.bucket.tokens -= 1.0
                on_dispatch(cong_st)
                call.state = CallState.RUNNING
                if dispatch(call):
                    self.dispatched_count += 1
                    continue
                # Placement failed right now: park it in the pipeline
                # for kick() to dispatch the moment a worker frees (it
                # keeps its gate token; the next tick's recycle refunds
                # it otherwise).
                if len(runq_heap) < park_cap:
                    call.state = CallState.RUNNABLE
                    heappush_(runq_heap, head)
                    continue
                # Pipeline full: refund and look a bounded number of
                # calls past the (likely oversized) head before moving
                # on.
                placement_failures += 1
                deferred.append(head)
                if placement_failures > lookahead:
                    break
            for head in deferred:
                self._demote(head)

    # ------------------------------------------------------------------
    # Step 3: RunQ → WorkerLB
    # ------------------------------------------------------------------
    def _drain_runq(self) -> None:
        # kick() path: dispatch parked pipeline calls into freed worker
        # slots.  Refused calls are *re-parked* (they keep their place
        # and tokens until the next tick's recycle); a bounded number of
        # misses keeps the completion path cheap.  A refused call's
        # entry goes back onto the RunQ heap as it is.
        heap = self.runq._heap
        heappop_ = heapq.heappop
        dispatch = self.workerlb.dispatch
        refused = []
        misses = 0
        while misses < 8 and heap:
            entry = heappop_(heap)
            call = entry[3]
            call.state = CallState.RUNNING
            if dispatch(call):
                self.dispatched_count += 1
            else:
                call.state = CallState.RUNNABLE
                refused.append(entry)
                misses += 1
        for entry in refused:
            heapq.heappush(heap, entry)

    def _resolve_gates(self, name: str) -> Gates:
        """Memoize a function's (congestion state, quota) pair: both are
        registered for life and mutated in place."""
        gates = self._gate_states[name] = (
            self.congestion.state_for(name),
            self.rate_limiter.quota_for(name))
        return gates

    def _demote(self, entry: BufferEntry) -> None:
        """Undo a gated dispatch: return both gate tokens and push the
        call's entry back into its FuncBuffer as it is."""
        call = entry[3]
        name = call.spec.name
        gates = self._gate_states.get(name)
        if gates is None:
            gates = self._resolve_gates(name)
        cong_st, quota = gates
        self.congestion.cancel_dispatch(cong_st)
        quota.bucket.refund()
        call.state = CallState.BUFFERED
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = self._buffers[name] = FuncBuffer(name)
        heapq.heappush(buffer._heap, entry)
        self._buffered_total += 1

    # ------------------------------------------------------------------
    # Completion path (wired as the workers' on_finish)
    # ------------------------------------------------------------------
    def on_call_finished(self, call: FunctionCall,
                         outcome: CallOutcome) -> None:
        name = call.function_name
        self.congestion.on_finish(name)
        if call.resources is not None:
            self.rate_limiter.record_cost(name, call.resources[0])
        if outcome is CallOutcome.OK:
            self._finalize(call, outcome)
        elif outcome is CallOutcome.ISOLATION_DENIED:
            self._finalize(call, outcome)
        else:
            self._retry_or_fail(call, outcome)
        # Capacity freed: dispatch more.
        self.kick()

    def _retry_or_fail(self, call: FunctionCall,
                       outcome: CallOutcome) -> None:
        entry = self._inflight.get(call.call_id)
        policy = call.spec.retry_policy
        if entry is not None and call.attempts + 1 < policy.max_attempts:
            _, shard = entry
            del self._inflight[call.call_id]
            shard.nack(call, retry_delay_s=policy.retry_delay_s)
        else:
            self._finalize(call, outcome)

    def _finalize(self, call: FunctionCall, outcome: CallOutcome) -> None:
        entry = self._inflight.pop(call.call_id, None)
        if entry is not None:
            _, shard = entry
            shard.ack(call)
        call.outcome = outcome
        if outcome is CallOutcome.OK:
            call.state = CallState.COMPLETED
            self.completed_count += 1
        else:
            call.state = CallState.FAILED
            self.failed_count += 1
        if call.finish_time is None:
            call.finish_time = self.sim.now
        if self.on_done is not None:
            self.on_done(call, outcome)

    # ------------------------------------------------------------------
    def _extend_leases(self) -> None:
        for call, shard in self._inflight.values():
            shard.extend_lease(call.call_id)

    # ------------------------------------------------------------------
    @property
    def buffered_count(self) -> int:
        return self._buffered_total

    @property
    def pending_demand(self) -> int:
        """Buffered + runnable calls (GTC demand signal)."""
        return self._buffered_total + len(self.runq)

    def stop(self) -> None:
        self._tick_task.cancel()
        self._lease_task.cancel()
        self._traffic.stop()
        self._s_multiplier.stop()
