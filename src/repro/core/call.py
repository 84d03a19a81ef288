"""Function-call records and lifecycle state.

A :class:`FunctionCall` is created at submission and carries its
lifecycle timestamps through the pipeline of Figure 6: submitter →
QueueLB → DurableQ → scheduler (FuncBuffer → RunQ) → WorkerLB → worker.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from ..workloads.spec import FunctionSpec

__all__ = ["CallIdAllocator", "CallState", "CallOutcome", "FunctionCall"]


class CallIdAllocator:
    """Deterministic per-owner source of call ids (1, 2, 3, ...).

    Ids must depend only on the run that allocates them, never on how
    many simulations the process ran before, so the counter lives on
    the owning object (platform, pool, test harness), not at module
    level.  The back-to-back-run tests (``test_determinism_trace.py``,
    ``test_baselines.py``, ``test_triggers.py``) fail on a shared
    counter.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def allocate(self) -> int:
        n = self._next
        self._next += 1
        return n


class CallState(enum.Enum):
    """Where a call currently is in the Figure 6 pipeline."""

    SUBMITTED = "submitted"
    QUEUED = "queued"          # persisted in a DurableQ
    BUFFERED = "buffered"      # leased into a scheduler FuncBuffer
    RUNNABLE = "runnable"      # in the RunQ
    RUNNING = "running"        # executing on a worker
    COMPLETED = "completed"
    FAILED = "failed"
    THROTTLED = "throttled"    # rejected at submission by rate limiting
    EXPIRED = "expired"


class CallOutcome(enum.Enum):
    """Terminal result of one execution attempt."""

    OK = "ok"
    ERROR = "error"
    BACKPRESSURE = "backpressure"
    WORKER_FULL = "worker_full"
    ISOLATION_DENIED = "isolation_denied"


class FunctionCall:
    """One invocation travelling through the platform.

    A plain slotted record: the platform drops its last reference when
    the call terminalizes, so live call storage is O(in-flight).
    Timestamps are stored as ``float`` whatever numeric type the caller
    passes, because trace digests hash their ``repr``.
    """

    __slots__ = ("spec", "call_id", "source_level", "resources", "_sort_key",
                 "submit_time", "start_time", "args_size_kb",
                 "dispatch_time", "finish_time", "region_submitted",
                 "durableq_region", "scheduler_region", "state", "outcome",
                 "attempts", "worker_name", "args_spilled")

    def __init__(self, spec: FunctionSpec, submit_time: float,
                 start_time: float, region_submitted: str,
                 source_level: int = 0, args_size_kb: float = 4.0,
                 call_id: int = 0, state: CallState = CallState.SUBMITTED,
                 attempts: int = 0,
                 durableq_region: Optional[str] = None,
                 scheduler_region: Optional[str] = None,
                 dispatch_time: Optional[float] = None,
                 finish_time: Optional[float] = None,
                 worker_name: Optional[str] = None,
                 outcome: Optional[CallOutcome] = None,
                 resources: Optional[Tuple[float, float, float]] = None,
                 args_spilled: bool = False) -> None:
        if start_time < submit_time:
            raise ValueError(
                f"start_time {start_time} precedes submit_time "
                f"{submit_time}")
        if args_size_kb < 0:
            raise ValueError("args_size_kb must be >= 0")
        self.spec = spec
        self.submit_time = float(submit_time)
        #: Caller-requested execution start time (§4.6: may be the future).
        self.start_time = float(start_time)
        self.region_submitted = region_submitted
        #: Bell–LaPadula classification level of the call's arguments (§4.7).
        self.source_level = source_level
        self.args_size_kb = float(args_size_kb)
        #: Assigned by the owner's :class:`CallIdAllocator`; 0 = unassigned.
        self.call_id = call_id
        self.state = state
        self.attempts = attempts
        # Filled in as the call progresses.
        self.durableq_region = durableq_region
        self.scheduler_region = scheduler_region
        self.dispatch_time = (None if dispatch_time is None
                              else float(dispatch_time))
        self.finish_time = None if finish_time is None else float(finish_time)
        self.worker_name = worker_name
        self.outcome = outcome
        #: Sampled per-invocation resources (cpu_minstr, memory_mb, exec_s);
        #: sampled once at first dispatch so retries replay the same demand.
        self.resources = resources
        #: True when the submitter spilled oversized args to the KV store.
        self.args_spilled = args_spilled
        #: Memoized :meth:`sort_key` — every buffer/RunQ (re)insertion
        #: keys on it, and all of its inputs are fixed at submission.
        self._sort_key: Optional[Tuple[float, float, int]] = None

    @property
    def function_name(self) -> str:
        return self.spec.name

    @property
    def deadline_time(self) -> float:
        """Absolute completion deadline (§2.4): start time + deadline."""
        return self.start_time + self.spec.deadline_s

    @property
    def criticality(self) -> int:
        return int(self.spec.criticality)

    def is_ready(self, now: float) -> bool:
        """Past its requested execution start time."""
        return now >= self.start_time

    def sort_key(self) -> Tuple[float, float, int]:
        """FuncBuffer order (§4.4): criticality first, then deadline.

        Returns a tuple for a *min*-heap: higher criticality and earlier
        deadline come first; call id breaks ties deterministically.
        """
        key = self._sort_key
        if key is None:
            spec = self.spec
            key = (-int(spec.criticality),
                   self.start_time + spec.deadline_s, self.call_id)
            if self.call_id:
                # Only memoize once the allocator has assigned an id.
                self._sort_key = key
        return key

    def __repr__(self) -> str:
        return (f"FunctionCall(id={self.call_id}, "
                f"function={self.spec.name!r}, state={self.state.value})")
