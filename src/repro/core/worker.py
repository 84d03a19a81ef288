"""Worker: an always-on runtime executing many functions per process (§4.5).

The universal-worker approximation rests on four properties this class
implements:

1. **No cold start** — the code of every function in the namespace is
   already on the worker's SSD (pushed by :class:`CodeDeployer`), and
   the runtime process is always up.  The first call for a function on a
   worker pays only a small SSD code-load latency.
2. **Many functions per Linux process** — concurrent calls of different
   functions share the runtime, bounded by thread and memory capacity.
3. **JIT warm-up** — a (re)started runtime ramps to full speed per
   :class:`RuntimeJit`; cooperative JIT collapses the ramp.
4. **Bounded resident set** — each function executed on the worker keeps
   JIT code + caches resident; an LRU budget models the limited memory
   that motivates locality groups (§4.5.2).

Memory accounting (Fig 10 / §5.2 A/B): worker memory = runtime baseline
+ resident per-function code/JIT + live per-call memory.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..cluster.machine import CpuAccount, MachineSpec
from ..sim.kernel import Simulator
from ..sim.rng import RngStream
from ..workloads.spec import Criticality, QuotaType
from .call import CallOutcome, FunctionCall
from .codedeploy import CodeVersion
from .jit import JitParams, RuntimeJit
from .workerarrays import WorkerArrays

FinishCallback = Callable[[FunctionCall, CallOutcome], None]
#: Invoked at call completion with the finishing call; returns the
#: outcome after downstream effects (OK, or ERROR on downstream failure).
DownstreamGateway = Callable[[FunctionCall], CallOutcome]

#: Latency to load a not-yet-resident function's code from local SSD
#: (the residual "cold" cost of the universal worker; milliseconds,
#: not the seconds of a container cold start).
CODE_LOAD_S = 0.100
#: Refuse admission if projected memory exceeds this fraction of
#: physical memory (protection against OOM).
MEMORY_HEADROOM = 0.92


@dataclass(frozen=True)
class WorkerParams:
    """Worker-level tunables."""

    #: Runtime baseline memory (process, shared libs, code cache floor).
    runtime_baseline_mb: float = 4096.0
    #: Budget for resident function code + JIT code + per-function
    #: caches, enforced by LRU eviction.
    resident_budget_mb: float = 24 * 1024.0
    #: Resident memory per function ≈ code + JIT code + warm caches.
    resident_multiplier: float = 3.0
    #: Refuse admission if projected CPU load exceeds cores × factor.
    #: Slightly above 1.0 models OS timesharing: a core-bound call and a
    #: trickle of light calls coexist with marginal slowdown instead of
    #: hard bin-packing refusals (which strand ~20% of capacity when
    #: full-core calls can only land on perfectly idle machines).
    cpu_admission_factor: float = 1.15
    #: Optional static CPU headroom kept free of opportunistic and
    #: low-criticality calls (< 1.0 reserves the top slice for reserved
    #: work).  Default 1.0: reserved SLOs are protected by scheduling
    #: priority and the utilization controller instead — a static slice
    #: quantizes badly on few-core machines and strands capacity.
    background_admission_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.cpu_admission_factor > 0:
            raise ValueError("cpu_admission_factor must be > 0")
        # A fraction of 0 would refuse every background call forever;
        # above 1 the background budget would exceed the base budget,
        # which the WorkerLB's CPU bound takes as the largest.
        if not 0 < self.background_admission_fraction <= 1:
            raise ValueError(
                "background_admission_fraction must be in (0, 1]")


@dataclass
class _RunningCall:
    __slots__ = ("call", "cpu_load", "memory_mb", "finish_handle")

    call: FunctionCall
    cpu_load: float
    memory_mb: float
    finish_handle: object


class Worker:
    """One worker machine executing function calls.

    Hot scalar state (running-call count, CPU load, memory-in-use,
    online flag, locality group) lives in a :class:`WorkerArrays` row —
    ``self._arrays`` / ``self._index`` — shared per region so admission
    probes and two-choices draws read flat columns instead of chasing
    this object.  A worker is born in the store it lives in: given
    ``arrays``, it appends its row there (through
    :meth:`WorkerArrays.add_rows`, like any other row) and keeps it for
    life; without one it gets a single-row store of its own.  Given
    ``index`` as well, the worker becomes the view of that existing
    cold row and leaves its columns as they are.

    Subclass contract: an override of :meth:`can_admit` adds its
    refusals and then returns ``super().can_admit(call)`` (as
    :class:`ElasticWorker` does), so it never admits a call the base
    refuses.  The WorkerLB's speed-1 CPU bound refuses probes without
    calling :meth:`execute` and relies on this.
    """

    __slots__ = (
        "sim", "name", "region", "namespace", "machine", "params", "jit",
        "on_finish", "downstream_gateway", "code_version",
        "cpu", "_arrays", "_index",
        "_baseline_mb", "_mem_limit_mb", "_cpu_budget",
        "_bg_cpu_budget", "_resident_multiplier", "_resource_streams",
        "_jit_speed_at", "_jit_speed", "_budget_by_name",
        "_running", "_live_memory_mb", "_resident", "_resident_mb",
        "_window_functions", "calls_started", "calls_completed",
        "admission_rejections", "isolation_rejections", "evictions")

    def __init__(self, sim: Simulator, name: str, region: str,
                 namespace: str = "default",
                 machine: MachineSpec = MachineSpec(),
                 params: WorkerParams = WorkerParams(),
                 jit_params: JitParams = JitParams(),
                 on_finish: Optional[FinishCallback] = None,
                 downstream_gateway: Optional[DownstreamGateway] = None,
                 arrays: Optional[WorkerArrays] = None,
                 index: Optional[int] = None) -> None:
        self.sim = sim
        self.name = name
        self.region = region
        self.namespace = namespace
        self.machine = machine
        self.params = params
        self.jit = RuntimeJit(jit_params)
        self.on_finish = on_finish
        self.downstream_gateway = downstream_gateway
        self.code_version = CodeVersion(version=1, released_at=0.0)

        self.cpu = CpuAccount(cores=machine.cores)
        # Admission-path constants, folded once: every product below is
        # computed exactly as the original per-call expressions did, so
        # the floats (and thus admission decisions) are bit-identical.
        self._baseline_mb = params.runtime_baseline_mb
        self._mem_limit_mb = machine.memory_mb * MEMORY_HEADROOM
        self._cpu_budget = machine.cores * params.cpu_admission_factor
        self._bg_cpu_budget = (self._cpu_budget *
                               params.background_admission_fraction)
        self._resident_multiplier = params.resident_multiplier
        # SoA row: hot scalars live in the store; this object is the
        # view.  mem starts at the exact old float expression
        # baseline + resident + live with the latter two at 0.0.
        store = arrays if arrays is not None else WorkerArrays()
        self._arrays = store
        if index is None:
            index = store.add_rows(
                1, machine.threads, machine.cores, machine.memory_mb,
                self._baseline_mb + 0.0 + 0.0).start
            store.views[index] = self
        self._index = index
        #: function name → its shared resource-sampling stream; avoids
        #: rebuilding the f-string stream name per call (xbench
        #: ``worker.self_s`` measures the per-call cost).
        self._resource_streams: Dict[str, RngStream] = {}
        #: JIT speed memo for the current timestamp (admission probes a
        #: worker many times within one scheduling sweep).
        self._jit_speed_at = -1.0
        self._jit_speed = 1.0
        #: function name → admission CPU budget.  Both budgets and the
        #: spec's quota class are fixed after construction, so the
        #: opportunistic/LOW classification collapses to one dict get.
        self._budget_by_name: Dict[str, float] = {}
        self._running: Dict[int, _RunningCall] = {}
        self._live_memory_mb = 0.0
        #: LRU of resident functions: name → resident MB.
        self._resident: "OrderedDict[str, float]" = OrderedDict()
        self._resident_mb = 0.0
        #: Functions executed in the current accounting window (Fig 9).
        self._window_functions: Set[str] = set()

        self.calls_started = 0
        self.calls_completed = 0
        self.admission_rejections = 0
        self.isolation_rejections = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # SoA-backed attributes (hot columns; the view stays assignable)
    # ------------------------------------------------------------------
    @property
    def online(self) -> bool:
        """False while the machine is down (site outage injection)."""
        return bool(self._arrays.online[self._index])

    @online.setter
    def online(self, value: bool) -> None:
        self._arrays.online[self._index] = 1 if value else 0

    @property
    def locality_group(self) -> int:
        return self._arrays.group[self._index]

    @locality_group.setter
    def locality_group(self, value: int) -> None:
        self._arrays.set_group(self._index, value)

    def _sync_mem(self) -> None:
        """Recompute (never accumulate) the memory column.

        The fresh left-associated sum is the exact float the old
        ``load_score`` computed per probe; accumulating deltas into the
        column instead would drift bitwise and change admission ties.
        """
        self._arrays.mem_mb[self._index] = (
            self._baseline_mb + self._resident_mb + self._live_memory_mb)

    # ------------------------------------------------------------------
    # Capacity views (used by the WorkerLB's power-of-two choice)
    # ------------------------------------------------------------------
    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def memory_in_use_mb(self) -> float:
        # The column is recomputed on every mutation, so the view and
        # the Fig 10 sampler (which reads the column) share one source.
        return self._arrays.mem_mb[self._index]

    @property
    def cpu_load(self) -> float:
        return self.cpu.load

    def load_score(self) -> float:
        """Scalar load for load balancing: max of thread/CPU/memory use."""
        return self._arrays.load_score(self._index)

    # ------------------------------------------------------------------
    # Admission and execution
    # ------------------------------------------------------------------
    def can_admit(self, call: FunctionCall
                  ) -> Optional[Tuple[float, float, float]]:
        """Admission check: ``(mem_mb, duration, cpu_load)`` of the call
        on this worker, or None when the worker refuses it.

        The call's resources are drawn right after the online check, so
        a refusal on threads, memory or CPU still leaves them drawn.
        """
        arr = self._arrays
        i = self._index
        if not arr.online[i]:
            return None
        resources = call.resources
        if resources is None:
            resources = self._resources(call)
        cpu_minstr, mem_mb, exec_s = resources
        if arr.running[i] >= arr.threads[i]:
            return None
        spec = call.spec
        name = spec.name
        resident_cost = 0.0
        if name not in self._resident:
            resident_cost = spec.code_size_mb * self._resident_multiplier
        if arr.mem_mb[i] + mem_mb + resident_cost > self._mem_limit_mb:
            return None
        # CPU admission: keep projected steady load within the core budget.
        now = self.sim._now
        if now != self._jit_speed_at:
            self._jit_speed_at = now
            self._jit_speed = self.jit.speed(now)
        speed = self._jit_speed
        # A call cannot finish before its (JIT-slowed) single-thread CPU
        # time; IO-bound calls keep their nominal wall time.
        cpu_s = cpu_minstr / (self.machine.core_mips * (speed if speed > 1e-6
                                                        else 1e-6))
        duration = exec_s if exec_s > cpu_s else cpu_s
        cpu_load = cpu_s / duration
        budget = self._budget_by_name.get(name)
        if budget is None:
            budget = self._budget_by_name[name] = (
                self._bg_cpu_budget if self._is_background(call)
                else self._cpu_budget)
        if arr.cpu_load[i] + cpu_load > budget:
            return None
        return mem_mb, duration, cpu_load

    @staticmethod
    def _is_background(call: FunctionCall) -> bool:
        return (call.spec.quota_type is QuotaType.OPPORTUNISTIC
                or call.spec.criticality <= Criticality.LOW)

    def execute(self, call: FunctionCall) -> bool:
        """Admit and run ``call``; returns False if the worker refused it.

        The worker independently re-checks the Bell–LaPadula flow (§4.7:
        "workers also ensure that a function running in a zone follows
        these properties").
        """
        # Inlined flow_allowed() — this runs once per admission probe.
        if call.source_level > call.spec.isolation_level:
            self.isolation_rejections += 1
            self._finish_now(call, CallOutcome.ISOLATION_DENIED)
            return True  # terminal: do not retry elsewhere
        admitted = self.can_admit(call)
        if admitted is None:
            self.admission_rejections += 1
            return False
        mem_mb, duration, cpu_load = admitted
        now = self.sim._now
        name = call.spec.name
        # Residual universal-worker cost: first call of a function loads
        # its (pre-pushed) code from local SSD.
        if name not in self._resident:
            duration += CODE_LOAD_S
            self._make_resident(name, call.spec.code_size_mb)
        else:
            self._resident.move_to_end(name)

        self.cpu.on_start(now, cpu_load)
        self._live_memory_mb += mem_mb
        self._window_functions.add(name)
        call.worker_name = self.name
        if call.dispatch_time is None:
            call.dispatch_time = now
        self.calls_started += 1
        handle = self.sim.call_after(
            duration, lambda: self._complete(call.call_id))
        self._running[call.call_id] = _RunningCall(
            call=call, cpu_load=cpu_load, memory_mb=mem_mb,
            finish_handle=handle)
        arr = self._arrays
        i = self._index
        arr.running[i] = len(self._running)
        arr.cpu_load[i] = self.cpu.load
        arr.mem_mb[i] = (self._baseline_mb + self._resident_mb +
                         self._live_memory_mb)
        arr.total_running += 1
        active = arr.active
        if i not in active:
            # The row was idle since before the store's last RIM window:
            # RIM skipped it, so bring its window start up to date.
            active.add(i)
            cpu = self.cpu
            if cpu._window_start < arr.window_start:
                cpu._window_start = arr.window_start
        return True

    def _complete(self, call_id: int) -> None:
        rc = self._running.pop(call_id, None)
        if rc is None:
            return
        now = self.sim._now
        self.cpu.on_finish(now, rc.cpu_load)
        self._live_memory_mb -= rc.memory_mb
        arr = self._arrays
        i = self._index
        arr.running[i] = len(self._running)
        arr.cpu_load[i] = self.cpu.load
        arr.mem_mb[i] = (self._baseline_mb + self._resident_mb +
                         self._live_memory_mb)
        arr.total_running -= 1
        self.calls_completed += 1
        rc.call.finish_time = now
        outcome = CallOutcome.OK
        if self.downstream_gateway is not None and rc.call.spec.downstream:
            outcome = self.downstream_gateway(rc.call)
        if self.on_finish is not None:
            self.on_finish(rc.call, outcome)

    def _finish_now(self, call: FunctionCall, outcome: CallOutcome) -> None:
        call.finish_time = self.sim.now
        if self.on_finish is not None:
            self.on_finish(call, outcome)

    # ------------------------------------------------------------------
    # Resource helpers
    # ------------------------------------------------------------------
    def _resources(self, call: FunctionCall) -> Tuple[float, float, float]:
        if call.resources is None:
            name = call.spec.name
            rng = self._resource_streams.get(name)
            if rng is None:
                rng = self._resource_streams[name] = \
                    self.sim.rng.stream(f"resources/{name}")
            call.resources = call.spec.profile.sample(
                rng, self.machine.core_mips)
        return call.resources

    def _make_resident(self, function_name: str, code_size_mb: float) -> None:
        resident_mb = code_size_mb * self.params.resident_multiplier
        while (self._resident_mb + resident_mb > self.params.resident_budget_mb
               and self._resident):
            _, evicted_mb = self._resident.popitem(last=False)
            self._resident_mb -= evicted_mb
            self.evictions += 1
        self._resident[function_name] = resident_mb
        self._resident_mb += resident_mb

    # ------------------------------------------------------------------
    # Failure injection (site outages, §4.4's capacity-crunch scenario)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the machine down: refuse admission, abort running calls.

        Aborted calls are reported as :data:`CallOutcome.WORKER_FULL`
        so the at-least-once machinery NACKs and retries them elsewhere.
        """
        if not self.online:
            return
        self.online = False
        self._interrupt_all()

    def recover(self) -> None:
        """Bring the machine back; the runtime restarts unseeded
        (its JIT must re-warm, §4.5.1)."""
        if self.online:
            return
        self.online = True
        self._jit_speed_at = -1.0
        self.jit.restart(self.sim.now, with_profile_data=False)
        self._resident.clear()
        self._resident_mb = 0.0
        self._sync_mem()

    def _interrupt_all(self) -> None:
        interrupted = list(self._running.values())
        self._running.clear()
        now = self.sim.now
        arr = self._arrays
        i = self._index
        for rc in interrupted:
            rc.finish_handle.cancel()
            self.cpu.on_finish(now, rc.cpu_load)
            self._live_memory_mb -= rc.memory_mb
            # Columns must be consistent before each on_finish callback:
            # the NACK path it triggers may probe admission state.
            arr.running[i] = len(self._running)
            arr.cpu_load[i] = self.cpu.load
            arr.mem_mb[i] = (self._baseline_mb + self._resident_mb +
                             self._live_memory_mb)
            arr.total_running -= 1
            rc.call.finish_time = None
            if self.on_finish is not None:
                self.on_finish(rc.call, CallOutcome.WORKER_FULL)

    # ------------------------------------------------------------------
    # Code rollout hooks (called by CodeDeployer)
    # ------------------------------------------------------------------
    def adopt_version(self, version: CodeVersion, seeded: bool) -> None:
        """Switch to a new code bundle; restarts the JIT ramp."""
        if version.version <= self.code_version.version:
            return
        self.code_version = version
        self._jit_speed_at = -1.0
        self.jit.restart(self.sim.now, with_profile_data=seeded)

    def receive_profile_data(self) -> None:
        self._jit_speed_at = -1.0
        self.jit.receive_profile_data(self.sim.now)

    # ------------------------------------------------------------------
    # Accounting windows
    # ------------------------------------------------------------------
    def take_utilization_window(self) -> float:
        """CPU utilization since the last call (drives Figures 7/8)."""
        return self.cpu.take_window(self.sim.now)

    def take_distinct_functions_window(self) -> int:
        """Distinct functions executed since last call (drives Figure 9)."""
        count = len(self._window_functions)
        self._window_functions = set()
        return count

    @property
    def resident_functions(self) -> int:
        return len(self._resident)
