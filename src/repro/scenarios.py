"""Canonical paper-shaped simulation scenarios as library code.

Historically the full-day reference run lived in ``benchmarks/conftest``
where only the pytest benchmarks could reach it.  The sweep engine
(:mod:`repro.sweep`) runs the same scenario in worker *processes*, so
the builder has to be importable library code — ``benchmarks/conftest``
now re-exports from here.

:func:`build_dayrun` keeps bit-identical default behavior (same
construction order, same RNG draws) so pinned trace digests remain
comparable across the move, while gaining
the knobs a sweep grid varies: seed, horizon, rate, population size,
region count, and §1.2 ablation flags applied on top of the default
parameters.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from . import PlatformParams, Simulator, XFaaS
from .analysis import fleet_utilization_series
from .cluster import MachineSpec, build_topology, size_topology_for_utilization
from .core import LocalityParams, SchedulerParams, UtilizationParams
from .downstream import ServiceRegistry, build_tao_stack
from .workloads import (
    ArrivalGenerator,
    DiurnalRate,
    TriggerType,
    attach_spike,
    build_population,
    estimate_demand_minstr,
    figure4_spike,
)

DAY_S = 86_400.0


@dataclass
class DayRun:
    """A completed full-day reference simulation plus its platform."""

    sim: Simulator
    platform: XFaaS
    population: object
    spiky_function: Optional[str]
    horizon_s: float
    n_regions: int

    @property
    def specs_by_trigger(self):
        counts = {t.value: 0 for t in TriggerType}
        for load in self.population.loads:
            counts[load.spec.trigger.value] += 1
        return counts


def default_dayrun_params() -> PlatformParams:
    """The reference parameterization shared by every dayrun consumer."""
    return PlatformParams(
        scheduler=SchedulerParams(poll_interval_s=2.0, buffer_capacity=1000,
                                  runq_capacity=300),
        utilization=UtilizationParams(target_utilization=0.72),
        locality=LocalityParams(n_groups=3),
        distinct_window_s=3600.0,
        memory_sample_interval_s=120.0,
    )


def build_dayrun(seed: int = 7, total_rate: float = 8.0,
                 horizon_s: float = DAY_S,
                 params_override: PlatformParams = None,
                 n_functions: int = 60, n_regions: int = 6,
                 opportunistic_fraction: float = 0.6,
                 peak_to_trough: float = 4.3,
                 target_utilization: float = 0.70,
                 overrides: Optional[dict] = None,
                 profiler: Optional[object] = None,
                 sanitize: bool = False) -> DayRun:
    """Build and run the shared full-day simulation.

    The default invocation reproduces the paper-shaped workload used by
    Figures 2/4/7/8/9/10/11 and Tables 1/3: diurnal 4.3× peak-to-trough
    with the midnight spike, Table 1 category mix, Table 3 resource
    shapes, a Figure 4 spiky function, reserved + opportunistic quota
    mix, and the TAO downstream stack.  ``overrides`` replaces fields on
    the (possibly overridden) :class:`PlatformParams` — the sweep engine
    uses it for ablation flags like ``{"time_shifting": False}``.

    ``profiler`` attaches a :class:`repro.profile.ProfileRecorder` to the
    simulator before anything is scheduled; the run behaves identically
    (bit-identical trace digest) but attributes wall time per component.

    ``sanitize`` runs the whole scenario under the
    :mod:`repro.sim.simsan` runtime sanitizer; behavior (and the trace
    digest) is bit-identical, but determinism violations raise.
    """
    sim = Simulator(seed=seed, sanitize=sanitize)
    if profiler is not None:
        sim.profiler = profiler
    diurnal = DiurnalRate(base_rate=1.0, peak_to_trough=peak_to_trough)
    population = build_population(
        n_functions=n_functions, total_rate=total_rate,
        opportunistic_fraction=opportunistic_fraction, diurnal=diurnal)

    # The Figure 4 client: a scaled 20M-calls-in-15-minutes burst on one
    # queue-triggered function, placed in the morning.  Small sweep
    # populations may not contain a qualifying function; then no spike.
    spiky_function = next(
        (l.spec.name for l in population.loads
         if l.spec.trigger is TriggerType.QUEUE and l.spec.is_delay_tolerant),
        None)
    if spiky_function is not None:
        burst_calls = total_rate * 900.0  # ~15 simulated minutes of mean load
        attach_spike(population, spiky_function,
                     figure4_spike(scale=burst_calls / 20.0e6,
                                   start_s=6 * 3600.0))

    machine = MachineSpec(cores=2, core_mips=500, threads=48)
    demand = estimate_demand_minstr(population, core_mips=machine.core_mips)
    topology = size_topology_for_utilization(
        demand, target_utilization=target_utilization, n_regions=n_regions,
        machine_spec=machine)

    services = ServiceRegistry()
    build_tao_stack(sim, services, tao_capacity_rps=1.0e5,
                    wtcache_capacity_rps=1.0e5, kvstore_capacity_rps=1.0e5)

    params = params_override or default_dayrun_params()
    if overrides:
        params = dataclasses.replace(params, **overrides)
    platform = XFaaS(sim, topology, params, services=services)
    for spec in population.specs:
        platform.register_function(spec)
    if spiky_function is not None:
        # The spiky client goes to the spiky submitter pool (§4.2).
        platform.register_spiky_client(
            platform.spec(spiky_function).team)

    # submit_stream is draw-for-draw identical to submit(spec.name, ...)
    # minus the name lookup and the returned call.
    ArrivalGenerator(sim, population, platform.submit_stream,
                     tick_s=20.0, stop_at=horizon_s)
    sim.run_until(horizon_s)
    return DayRun(sim=sim, platform=platform, population=population,
                  spiky_function=spiky_function, horizon_s=horizon_s,
                  n_regions=n_regions)


def build_fleetrun(n_workers: int, seed: int = 7,
                   total_rate: float = 30.0,
                   horizon_s: float = 600.0,
                   n_functions: int = 40, n_regions: int = 4,
                   opportunistic_fraction: float = 0.5,
                   overrides: Optional[dict] = None,
                   run_sim: bool = True,
                   sanitize: bool = False) -> DayRun:
    """Build and run a dayrun slice over an *explicit-size* worker fleet.

    The scale-ladder companion to :func:`build_dayrun`: the workload
    (arrival mix, scheduler cadences, controllers) is held fixed while
    ``n_workers`` sets the fleet size directly — flat capacity profile,
    ``n_workers // n_regions`` workers per region.  Because per-event
    work is fleet-size-independent after the struct-of-arrays refactor,
    throughput across values of ``n_workers`` measures exactly the
    fleet-scaling property (xbench's ``fleet-100k`` workload).

    ``run_sim=False`` returns before ``sim.run_until`` so a benchmark
    can time fleet construction and event processing separately — the
    caller runs ``run.sim.run_until(run.horizon_s)`` itself.
    """
    if n_workers < n_regions:
        raise ValueError(
            f"n_workers={n_workers} must be >= n_regions={n_regions}")
    sim = Simulator(seed=seed, sanitize=sanitize)
    diurnal = DiurnalRate(base_rate=1.0, peak_to_trough=4.3)
    population = build_population(
        n_functions=n_functions, total_rate=total_rate,
        opportunistic_fraction=opportunistic_fraction, diurnal=diurnal)

    machine = MachineSpec(cores=2, core_mips=500, threads=48)
    per_region = max(1, n_workers // n_regions)
    topology = build_topology(
        n_regions=n_regions, workers_per_unit=per_region,
        relative_capacity=[1.0] * n_regions, machine_spec=machine)

    services = ServiceRegistry()
    build_tao_stack(sim, services, tao_capacity_rps=1.0e5,
                    wtcache_capacity_rps=1.0e5, kvstore_capacity_rps=1.0e5)

    params = default_dayrun_params()
    if overrides:
        params = dataclasses.replace(params, **overrides)
    platform = XFaaS(sim, topology, params, services=services)
    for spec in population.specs:
        platform.register_function(spec)

    ArrivalGenerator(sim, population, platform.submit_stream,
                     tick_s=20.0, stop_at=horizon_s)
    if run_sim:
        sim.run_until(horizon_s)
    return DayRun(sim=sim, platform=platform, population=population,
                  spiky_function=None, horizon_s=horizon_s,
                  n_regions=n_regions)


def summarize_run(run: DayRun) -> dict:
    """Headline scalar statistics of one run, JSON/pickle-friendly.

    These are the per-run values the sweep aggregator averages across
    seeds into confidence intervals (Fig 7 fleet utilization, completion
    latency percentiles, throughput accounting).
    """
    platform, horizon = run.platform, run.horizon_s
    warmup = min(3600.0, horizon / 4)
    fleet = [v for _, v in fleet_utilization_series(
        platform, warmup, horizon, min(600.0, max(horizon / 10, 1.0)))]
    summary = {
        "submitted": platform.submitted_count,
        "completed": platform.completed_count(),
        "backlog": platform.pending_backlog(),
        "throttled": (platform.metrics.counter("calls.throttled").total
                      if platform.metrics.has_counter("calls.throttled")
                      else 0.0),
        "events_executed": run.sim.events_executed,
        "fleet_util_mean": statistics.mean(fleet) if fleet else 0.0,
    }
    if platform.metrics.has_distribution("latency.completion"):
        lat = platform.metrics.distribution("latency.completion")
        if len(lat):
            summary["latency_p50_s"] = lat.percentile(50)
            summary["latency_p95_s"] = lat.percentile(95)
            summary["latency_p99_s"] = lat.percentile(99)
    if platform.metrics.has_distribution("latency.queueing"):
        qd = platform.metrics.distribution("latency.queueing")
        if len(qd):
            summary["queueing_p50_s"] = qd.percentile(50)
            summary["queueing_p95_s"] = qd.percentile(95)
    return summary


#: Scenario name -> builder, the dispatch table used by sweep workers.
#: Builders accept ``build_dayrun``-style keyword arguments and return a
#: :class:`DayRun`.
SCENARIOS: Dict[str, Callable[..., DayRun]] = {
    "dayrun": build_dayrun,
    "fleetrun": build_fleetrun,
}
