"""The benchmark's workloads, its windowed clock and its outcomes.

Every workload builds a fully constructed platform whose clock is still
at 0, so set-up and the run loop are timed apart.  :func:`drive` then
advances the clock in :data:`WINDOWS` equal windows and records the
host time of each, and that of a fixed reference loop run between
them.  Load is open loop in *simulated* time: arrivals are
due at simulated instants whatever the host does, so the generator
cannot run late.
"""

# simlint: disable-file=SL002 -- host time is what this harness measures
from __future__ import annotations

import gc
import heapq
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    FunctionSpec,
    Incident,
    IncidentInjector,
    PlatformParams,
    ServiceRegistry,
    Simulator,
    XFaaS,
    build_tao_stack,
    build_topology,
)
from repro.core import CongestionParams
from repro.scenarios import DayRun, build_dayrun, build_fleetrun, summarize_run
from repro.workloads import LogNormal, ResourceProfile

#: Clock windows per run: the clock advances by ``horizon / WINDOWS``.
WINDOWS = 360

# The §5.5 / Figure 13 incident: KVStore capacity drops to 5% for
# twenty simulated minutes while one function calls WTCache (which
# depends on KVStore) at a steady offered rate.
BP_HORIZON_S = 4800.0
BP_INCIDENT_S = (1800.0, 3000.0)
BP_OFFERED_RPS = 40


class _Hold:
    """A ``Simulator.profiler`` that hands the clock back unrun.

    ``build_dayrun`` runs its simulation before returning.  Installed as
    its ``profiler``, this object receives that first ``run_until`` and
    returns at once, so ``build_dayrun`` returns with the clock at 0.
    """

    def run_until(self, sim: Simulator, until: float) -> None:
        pass


class OpenLoopClient:
    """Submits ``rps`` calls of one function each simulated second.

    Calls go through the public :meth:`XFaaS.submit`, which pins every
    call's arena row (the other workloads recycle rows through
    ``submit_stream``).
    """

    def __init__(self, sim: Simulator, platform: XFaaS, function: str,
                 rps: int) -> None:
        self.platform = platform
        self.function = function
        self.rps = rps
        sim.every(1.0, self.tick)

    def tick(self) -> None:
        submit = self.platform.submit
        for _ in range(self.rps):
            submit(self.function)


def _dayrun(seed: int, horizon_s: float) -> DayRun:
    run = build_dayrun(seed=seed, horizon_s=horizon_s, profiler=_Hold())
    run.sim.profiler = None
    return run


def _fleet(seed: int, horizon_s: float) -> DayRun:
    return build_fleetrun(100_000, seed=seed, horizon_s=horizon_s,
                          run_sim=False)


def build_backpressure(seed: int, horizon_s: float = BP_HORIZON_S,
                       client_rps: Optional[float] = None) -> DayRun:
    """The §5.5 back-pressure incident on 2 regions × 6 workers.

    ``client_rps`` sets a client rate limit below the offered load, so
    that the submitter throttles calls (a workload where operations
    fail).
    """
    sim = Simulator(seed=seed)
    topology = build_topology(n_regions=2, workers_per_unit=6)
    services = ServiceRegistry()
    _, _, kvstore = build_tao_stack(
        sim, services, tao_capacity_rps=5000.0,
        wtcache_capacity_rps=400.0, kvstore_capacity_rps=400.0)
    params = PlatformParams(congestion=CongestionParams(
        backpressure_threshold_per_min=60.0, adjust_window_s=30.0,
        additive_increase_rps=5.0))
    platform = XFaaS(sim, topology, params, services=services)
    spec = FunctionSpec(
        name="graph-sync", quota_minstr_per_s=1.0e6,
        profile=ResourceProfile(
            cpu_minstr=LogNormal(mu=math.log(20.0), sigma=0.3),
            memory_mb=LogNormal(mu=math.log(32.0), sigma=0.3),
            exec_time_s=LogNormal(mu=math.log(0.2), sigma=0.3)),
        downstream=(("wtcache", 3),))
    platform.register_function(spec)
    if client_rps is not None:
        platform.client_limiter.set_limit(spec.team, client_rps)
    start, end = BP_INCIDENT_S
    IncidentInjector(sim).inject(
        kvstore, Incident("kvstore", start, end, degraded_factor=0.05))
    OpenLoopClient(sim, platform, spec.name, BP_OFFERED_RPS)
    return DayRun(sim=sim, platform=platform, population=None,
                  spiky_function=None, horizon_s=horizon_s, n_regions=2)


@dataclass(frozen=True)
class Workload:
    """A named build function; why each exists is in BENCHMARK.json."""

    name: str
    #: ``build(seed, horizon_s)`` -> an unrun :class:`DayRun`.
    build: Callable[[int, float], DayRun]
    horizon_s: float


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dayrun", _dayrun, 3600.0),
    Workload("fleet-100k", _fleet, 600.0),
    Workload("backpressure", build_backpressure, BP_HORIZON_S),
)}


def reference_loop(n: int = 1000) -> float:
    """A fixed piece of interpreter work that uses nothing of ``repro``.

    Its host time tracks how fast the machine runs Python at the moment:
    on a shared machine the speed drifts by tens of per cent over
    minutes, and the run loop's time follows it.  The collector is off
    so that the simulator's heap does not change the loop's cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        heap: List[Tuple[float, int, List[int]]] = []
        counts: Dict[int, int] = {}
        acc = 0.0
        for i in range(n):
            heapq.heappush(heap, ((i * 7919) % 1000003 * 1e-3, i, [i]))
            counts[i & 4095] = counts.get(i & 4095, 0) + 1
            if len(heap) > 256:
                acc += heapq.heappop(heap)[0]
        return acc
    finally:
        if was_enabled:
            gc.enable()


def drive(sim: Simulator, horizon_s: float,
          recorder: Any = None) -> Tuple[List[float], float]:
    """Run ``sim`` to ``horizon_s`` in :data:`WINDOWS` equal windows.

    Returns the host seconds of each window and the mean host seconds of
    :func:`reference_loop`, which runs once before every window, so that
    both sample the same phases of the machine.  ``recorder`` (a
    :class:`repro.profile.ProfileRecorder`) becomes the kernel's dispatch
    loop for the traced pass.  Splitting the horizon into windows does
    not change the order of events, so the trace digest is that of one
    ``run_until(horizon_s)``.
    """
    sim.profiler = recorder
    windows = []
    reference_s = 0.0
    for i in range(1, WINDOWS + 1):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        sim.run_until(horizon_s * i / WINDOWS)
        windows.append(perf_counter() - t1)
        reference_s += t1 - t0
    return windows, reference_s / WINDOWS


def outcomes(run: DayRun) -> Dict[str, Any]:
    """Simulated end-to-end outcomes and operation counts of a run.

    An operation is one submitted call; it failed when it was throttled,
    failed or expired.  Deterministic for a seed.
    """
    p = run.platform
    summary = summarize_run(run)
    submitted = p.submitted_count
    failed = p.throttled_count + sum(s.failed_count + s.expired_count
                                     for s in p.schedulers.values())
    return {
        "ops": submitted,
        "failed_ops": failed,
        "completed": summary["completed"],
        "events": run.sim.events_executed,
        "sim_util": summary["fleet_util_mean"],
        "sim_p50_s": summary["latency_p50_s"],
        "sim_p99_s": summary["latency_p99_s"],
        "done_frac": summary["completed"] / submitted,
        "failed_frac": failed / submitted,
    }


def problems(run: DayRun, out: Dict[str, Any]) -> List[str]:
    """Conservation checks on a finished run; empty when it is right.

    Every terminal call (completed, failed, expired or throttled) leaves
    exactly one trace row, and no more calls end than were submitted.
    """
    found = []
    terminal = out["completed"] + out["failed_ops"]
    if len(run.platform.traces) != terminal:
        found.append(f"{len(run.platform.traces)} trace rows for "
                     f"{terminal} terminal calls")
    if terminal > out["ops"]:
        found.append(f"{terminal} terminal calls of {out['ops']} submitted")
    if out["completed"] == 0:
        found.append("no call completed")
    return found
