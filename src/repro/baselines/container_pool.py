"""Per-function container pools — the conventional-FaaS execution model.

Each function gets its own containers (no cross-function sharing).  An
arriving call reuses an idle container when one exists; otherwise a new
container pays the Figure 1 cold-start sequence.  Idle containers are
kept warm for a keep-alive window (Wang et al. [45]: ≥10 minutes on the
major public platforms) and then shut down.  Memory is reserved for the
container's whole lifetime — including idle time — which is where the
baseline's hardware waste comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..cluster.machine import CpuAccount
from ..core.call import CallIdAllocator
from ..sim.kernel import Simulator
from ..workloads.spec import FunctionSpec
from .coldstart import LifecycleModel, baseline_model


@dataclass(frozen=True)
class ContainerPoolParams:
    """Keep-alive, container footprint, and static-limit tunables."""

    keepalive_s: float = 600.0
    #: Memory a container reserves (function footprint + runtime).
    container_memory_mb: float = 512.0
    #: Static per-function concurrency limit (AWS-style, §1.1).
    default_concurrency_limit: int = 100
    core_mips: float = 4000.0

    def __post_init__(self) -> None:
        if self.keepalive_s < 0:
            raise ValueError("keepalive_s must be >= 0")
        if self.default_concurrency_limit < 1:
            raise ValueError("default_concurrency_limit must be >= 1")


@dataclass
class _Container:
    container_id: int
    function: str
    busy: bool = True
    idle_since: float = 0.0
    kill_handle: Optional[object] = None


@dataclass
class BaselineCallResult:
    """Outcome of one baseline invocation (timings + cold/rejected)."""

    submitted_at: float
    started_at: float
    finished_at: float
    cold: bool
    rejected: bool = False

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at

    @property
    def startup_delay(self) -> float:
        return self.started_at - self.submitted_at


class ContainerPool:
    """A region-sized pool of per-function containers with cold starts."""

    def __init__(self, sim: Simulator, capacity_cores: int = 128,
                 capacity_memory_mb: float = 256 * 1024.0,
                 params: ContainerPoolParams = ContainerPoolParams(),
                 lifecycle: Optional[LifecycleModel] = None,
                 on_done: Optional[Callable[[str, BaselineCallResult], None]]
                 = None) -> None:
        self.sim = sim
        self.params = params
        self.lifecycle = lifecycle or baseline_model()
        self.on_done = on_done
        self.cpu = CpuAccount(cores=capacity_cores)
        self.capacity_memory_mb = capacity_memory_mb
        self._memory_reserved = 0.0
        # Per-pool ids: two pools (or two back-to-back runs in one
        # process) number their containers identically
        # (``test_back_to_back_runs_identical``).
        self._container_ids = CallIdAllocator()
        self._specs: Dict[str, FunctionSpec] = {}
        self._limits: Dict[str, int] = {}
        self._containers: Dict[str, List[_Container]] = {}
        #: function name → its sampling stream; the registry hands back
        #: the same stream per name, so resolving once per function
        #: (not per call) is behaviorally identical.
        self._streams: Dict[str, object] = {}
        self.cold_starts = 0
        self.warm_starts = 0
        self.rejections = 0
        self.completed = 0

    # ------------------------------------------------------------------
    def register_function(self, spec: FunctionSpec,
                          concurrency_limit: Optional[int] = None) -> None:
        self._specs[spec.name] = spec
        self._limits[spec.name] = (concurrency_limit or
                                   spec.concurrency_limit or
                                   self.params.default_concurrency_limit)
        self._containers.setdefault(spec.name, [])

    @property
    def memory_reserved_mb(self) -> float:
        return self._memory_reserved

    def live_containers(self, function: Optional[str] = None) -> int:
        if function is not None:
            return len(self._containers.get(function, ()))
        return sum(len(c) for c in self._containers.values())

    # ------------------------------------------------------------------
    def submit(self, function: str) -> None:
        """Invoke a function now (baseline has no queueing/deferral)."""
        spec = self._specs.get(function)
        if spec is None:
            raise KeyError(f"function {function!r} not registered")
        now = self.sim.now
        containers = self._containers[function]
        idle = next((c for c in containers if not c.busy), None)
        if idle is not None:
            self._start_call(spec, idle, now, cold=False)
            return
        # Need a new container: static concurrency limit + memory check.
        if len(containers) >= self._limits[function]:
            self._reject(function, now)
            return
        mem = self.params.container_memory_mb
        if self._memory_reserved + mem > self.capacity_memory_mb:
            self._reject(function, now)
            return
        container = _Container(container_id=self._container_ids.allocate(),
                               function=function)
        containers.append(container)
        self._memory_reserved += mem
        self._start_call(spec, container, now, cold=True)

    def _reject(self, function: str, now: float) -> None:
        self.rejections += 1
        if self.on_done is not None:
            self.on_done(function, BaselineCallResult(
                submitted_at=now, started_at=now, finished_at=now,
                cold=False, rejected=True))

    def _start_call(self, spec: FunctionSpec, container: _Container,
                    now: float, cold: bool) -> None:
        container.busy = True
        if container.kill_handle is not None:
            container.kill_handle.cancel()
            container.kill_handle = None
        rng = self._streams.get(spec.name)
        if rng is None:
            rng = self._streams[spec.name] = \
                self.sim.rng.stream(f"baseline/{spec.name}")
        cpu_minstr, _, exec_s = spec.profile.sample(rng, self.params.core_mips)
        startup = 0.0
        if cold:
            self.cold_starts += 1
            breakdown = self.lifecycle.breakdown(exec_s, cold=True)
            startup = breakdown.startup_overhead_s
        else:
            self.warm_starts += 1
        start_at = now + startup
        duration = max(exec_s, cpu_minstr / self.params.core_mips)
        cpu_load = (cpu_minstr / self.params.core_mips) / duration

        def begin() -> None:
            self.cpu.on_start(self.sim.now, cpu_load)
            self.sim.call_after(duration, finish)

        def finish() -> None:
            t = self.sim.now
            self.cpu.on_finish(t, cpu_load)
            self.completed += 1
            container.busy = False
            container.idle_since = t
            container.kill_handle = self.sim.call_after(
                self.params.keepalive_s, lambda: self._kill(container))
            if self.on_done is not None:
                self.on_done(spec.name, BaselineCallResult(
                    submitted_at=now, started_at=start_at,
                    finished_at=t, cold=cold))
        self.sim.call_after(startup, begin)

    def _kill(self, container: _Container) -> None:
        """Keep-alive expired (Figure 1 steps 9–10): shut the container down."""
        containers = self._containers.get(container.function, [])
        if container in containers and not container.busy:
            containers.remove(container)
            self._memory_reserved -= self.params.container_memory_mb

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        return self.cpu.utilization_total(self.sim.now)

    def take_utilization_window(self) -> float:
        return self.cpu.take_window(self.sim.now)
