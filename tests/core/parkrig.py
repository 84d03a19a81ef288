"""A scheduler rig that parks, drains and recycles calls on demand.

The RunQ's heap is pushed and popped only by the scheduler's own
per-tick paths: ``_schedule_pass`` parks a gated call that the WorkerLB
refused, ``_drain_runq`` dispatches parked calls (re-parking refused
ones) and ``_recycle_runq`` returns every parked call to its
FuncBuffer.  This rig opens both gates and scripts the WorkerLB, so a
test can drive exactly those paths and read the order they produce.
"""

from repro.core import (
    CentralRateLimiter,
    ConfigStore,
    CongestionController,
    CongestionParams,
    FunctionCall,
    Scheduler,
    SchedulerParams,
    Worker,
    WorkerLB,
)
from repro.core.call import CallIdAllocator
from repro.sim import Simulator
from repro.workloads import Criticality, FunctionSpec


class ParkRig:
    """One-region scheduler with open gates and a scripted WorkerLB.

    ``dispatch`` accepts while ``accepts`` is positive (counting it
    down and appending the call to ``dispatched``) and refuses after.
    """

    def __init__(self, runq_capacity=1000):
        self.sim = Simulator(seed=1)
        self.ids = CallIdAllocator()
        self.accepts = 0
        self.dispatched = []
        rate_limiter = CentralRateLimiter(initial_cost_minstr=100.0)
        congestion = CongestionController(CongestionParams())
        # Gates always open: these tests are about queue order, and the
        # gates are tested on their own.
        rate_limiter.try_acquire_quota = lambda quota, now, s=1.0: True
        congestion.can_dispatch_state = lambda state, now: True
        worker = Worker(self.sim, "w0", "r0")
        lb = WorkerLB(self.sim, "r0", worker._arrays,
                      group_of_function=lambda f: 0, n_groups_fn=lambda: 1)
        lb.dispatch = self._dispatch
        self.rate_limiter = rate_limiter
        self.congestion = congestion
        self.scheduler = Scheduler(
            self.sim, "r0", {"r0": []}, lb, rate_limiter, congestion,
            ConfigStore(self.sim, propagation_delay_s=0.0),
            SchedulerParams(runq_capacity=runq_capacity))
        self._registered = set()

    def _dispatch(self, call):
        if self.accepts > 0:
            self.accepts -= 1
            self.dispatched.append(call)
            return True
        return False

    def call(self, criticality=Criticality.NORMAL, deadline=60.0, name="f"):
        """A fresh call of function ``name`` with the next call id."""
        spec = FunctionSpec(name=name, criticality=criticality,
                            deadline_s=deadline)
        if name not in self._registered:
            self._registered.add(name)
            self.rate_limiter.register(spec, expected_cost_minstr=100.0)
            self.congestion.register(spec)
        return FunctionCall(spec=spec, submit_time=0.0, start_time=0.0,
                            region_submitted="r0",
                            call_id=self.ids.allocate())

    def buffer(self, *calls):
        """Buffer ``calls`` as the poll path does."""
        for call in calls:
            self.scheduler._buffer_call(call, None)

    def park(self, *calls):
        """Buffer ``calls`` and run a pass that refuses every dispatch,
        so each gated call parks (or is demoted once the RunQ is
        full)."""
        self.buffer(*calls)
        self.accepts = 0
        self.scheduler._schedule_pass()

    def drain(self, accepts):
        """Run the kick path with ``accepts`` dispatches to grant;
        return the calls it dispatched, in order."""
        self.accepts = accepts
        self.dispatched = []
        self.scheduler._drain_runq()
        self.accepts = 0
        return self.dispatched

    def parked(self):
        """Calls in the RunQ, unordered."""
        return [entry[-1] for entry in self.scheduler.runq._heap]
