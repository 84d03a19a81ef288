"""The XFaaS platform façade: builds and wires every Figure 6 component.

This is the main public entry point of the reproduction:

    from repro import XFaaS, PlatformParams
    from repro.cluster import build_topology
    from repro.sim import Simulator

    sim = Simulator(seed=42)
    platform = XFaaS(sim, build_topology(n_regions=4))
    platform.register_function(spec)
    platform.submit(spec.name)
    sim.run_until(3600)

Feature flags on :class:`PlatformParams` switch individual paper
techniques off for the ablation benchmarks (time-shifting, global
dispatch, locality groups).  ``cooperative_jit`` shapes code rollouts,
so it only matters once ``start_code_deployer`` starts the
:class:`CodeDeployer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from ..cluster.topology import Topology
from ..downstream.service import ServiceRegistry
from ..metrics.recorder import MetricsRegistry
from ..metrics.timeseries import Counter
from ..sim.kernel import Simulator
from ..sim.simsan import region_map
from ..workloads.spec import FunctionSpec, QuotaType
from ..workloads.trace import TraceLog
from .call import CallIdAllocator, CallOutcome, FunctionCall
from .codedeploy import CodeDeployer, RolloutParams
from .config import ConfigStore
from .congestion import CongestionController, CongestionParams
from .durableq import DurableQ
from .gtc import GlobalTrafficConductor, GtcParams
from .isolation import NamespaceRegistry
from .jit import JitParams
from .kvstore import DistributedKVStore
from .locality import LocalityOptimizer, LocalityParams
from .queuelb import ROUTING_KEY, QueueLB, capacity_proportional_routing
from .ratelimiter import CentralRateLimiter, ClientRateLimiter
from .rim import Rim
from .scheduler import S_MULTIPLIER_KEY, Scheduler, SchedulerParams
from .submitter import Submitter, SubmitterFrontend, SubmitterParams
from .utilization import UtilizationController, UtilizationParams
from .worker import FinishCallback, Worker, WorkerParams
from .workerarrays import WorkerArrays, WorkerViews
from .workerlb import WorkerLB

#: DurableQ shards per region (§4.3).
DURABLEQ_SHARDS_PER_REGION = 2


@dataclass(frozen=True)
class PlatformParams:
    """All tunables plus ablation feature flags."""

    namespace: str = "default"
    scheduler: SchedulerParams = field(default_factory=SchedulerParams)
    worker: WorkerParams = field(default_factory=WorkerParams)
    jit: JitParams = field(default_factory=JitParams)
    locality: LocalityParams = field(default_factory=LocalityParams)
    congestion: CongestionParams = field(default_factory=CongestionParams)
    utilization: UtilizationParams = field(default_factory=UtilizationParams)
    gtc: GtcParams = field(default_factory=GtcParams)
    submitter: SubmitterParams = field(default_factory=SubmitterParams)
    rollout: RolloutParams = field(default_factory=RolloutParams)
    #: When set, publish a §4.3 storage routing policy blending this
    #: much regional locality with DurableQ-capacity-proportional spread
    #: (None keeps the default submit-locally policy).
    queuelb_locality_bias: Optional[float] = None
    rim_sample_interval_s: float = 60.0
    #: Hourly window for the Fig 9 distinct-functions metric.
    distinct_window_s: float = 3600.0
    memory_sample_interval_s: float = 60.0
    start_code_deployer: bool = False

    # Ablation flags (§1.2 techniques).
    time_shifting: bool = True
    global_dispatch: bool = True
    locality_groups: bool = True
    cooperative_jit: bool = True


class InFlightCalls:
    """Count of calls submitted and not yet terminal, and its peak.

    ``len()`` is the peak, the most call records the platform ever held
    at once (xbench reports it as ``metrics.arena_rows``).
    """

    __slots__ = ("live", "peak")

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

    def __len__(self) -> int:
        return self.peak

    def add(self) -> None:
        live = self.live + 1
        self.live = live
        if live > self.peak:
            self.peak = live


class XFaaS:
    """One namespace's XFaaS deployment across a topology."""

    def __init__(self, sim: Simulator, topology: Topology,
                 params: PlatformParams = PlatformParams(),
                 services: Optional[ServiceRegistry] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.params = params
        self.metrics = MetricsRegistry()
        self.traces = TraceLog()
        self._call_id_allocator = CallIdAllocator()
        #: Calls submitted and not yet terminal; ``len()`` is the peak.
        self.arena = InFlightCalls()
        self.services = services or ServiceRegistry()
        self.namespaces = NamespaceRegistry()
        self.config = ConfigStore(sim)
        self.rate_limiter = CentralRateLimiter()
        self.client_limiter = ClientRateLimiter()
        self.kvstore = DistributedKVStore(sim)
        self.congestion = CongestionController(params.congestion)
        self._specs: Dict[str, FunctionSpec] = {}

        # Per-call metrics resolved once here; the submit/finish hot
        # paths below use the handles directly (xbench measures the
        # per-event cost).
        self._calls_received = self.metrics.counter("calls.received")
        self._calls_executed = self.metrics.counter("calls.executed")
        self._calls_throttled = self.metrics.counter("calls.throttled")
        self._cpu_reserved = self.metrics.counter("cpu.reserved")
        self._cpu_opportunistic = self.metrics.counter("cpu.opportunistic")
        self._queueing_latency = self.metrics.distribution("latency.queueing")
        self._completion_latency = self.metrics.distribution(
            "latency.completion")
        self._backpressure_counters: Dict[str, Counter] = {}
        # Built lazily on first submit (topology shares are final then).
        self._client_region_chooser: Optional[Callable[[], str]] = None

        ns = params.namespace
        self.namespaces.create(ns)
        regions = topology.region_names

        # simsan (opt-in): the region-map proxies enforce sorted
        # iteration and the RNG streams check draw-time monotonicity.
        sanitizer = sim.sanitizer

        # --- Stateful storage: sharded DurableQs per region -----------
        self.durableqs_by_region: Dict[str, List[DurableQ]] = \
            region_map(sanitizer, "durableqs_by_region")
        for r in regions:
            shards = [DurableQ(sim, name=f"dq/{r}/{i}", region=r)
                      for i in range(DURABLEQ_SHARDS_PER_REGION)]
            self.durableqs_by_region[r] = shards

        # --- Controllers (off the critical path) ----------------------
        self.rim = Rim(sim, self.metrics, params.rim_sample_interval_s)
        self.locality_optimizer = LocalityOptimizer(
            sim, self.config, params.locality,
            enabled=params.locality_groups, namespace=ns)
        self.gtc = GlobalTrafficConductor(
            sim, self.rim, self.config, topology.network, params.gtc,
            enabled=params.global_dispatch)
        self.utilization_controller = UtilizationController(
            sim, self.rim, self.config, params.utilization)
        self.deployer = CodeDeployer(sim, params.rollout,
                                     cooperative_jit=params.cooperative_jit)
        if not params.time_shifting:
            # Ablation: opportunistic functions are not deferred — their
            # elastic limit is pinned wide open.
            self.config.publish(S_MULTIPLIER_KEY, 1.0e9)
        if params.queuelb_locality_bias is not None:
            # §4.3: balance the *storage* load across regions' DurableQs.
            shards = {r: len(qs) for r, qs in self.durableqs_by_region.items()}
            self.config.publish(ROUTING_KEY, capacity_proportional_routing(
                regions, shards, locality_bias=params.queuelb_locality_bias))

        # --- Per-region pipeline --------------------------------------
        #: region -> its workers (every row of the region's store,
        #: elastic workers included), each view built on first access.
        self.workers_by_region: Dict[str, WorkerViews] = \
            region_map(sanitizer, "workers_by_region")
        self.workerlbs: Dict[str, WorkerLB] = \
            region_map(sanitizer, "workerlbs")
        self.schedulers: Dict[str, Scheduler] = \
            region_map(sanitizer, "schedulers")
        self.frontends: Dict[str, SubmitterFrontend] = \
            region_map(sanitizer, "frontends")
        self.queuelbs: Dict[str, QueueLB] = \
            region_map(sanitizer, "queuelbs")
        # Callbacks all worker views of a region share, bound once here
        # rather than once per view (fleet-100k builds ~14k views).
        self._view_on_finish: Dict[str, FinishCallback] = {}
        self._view_gateway = self._invoke_downstream

        for r in regions:
            n_workers = topology.region(r).workers_for(ns)
            machine = topology.region(r).machine_spec
            # One SoA store per region: every worker's hot scalars live
            # in its columns; admission and dispatch index into it.  The
            # workers start as cold rows (mem is Worker.__init__'s fresh
            # baseline + 0.0 + 0.0); _worker_view builds a view on first
            # access.
            arrays = WorkerArrays(make_view=partial(self._worker_view, r))
            rows = arrays.add_rows(
                n_workers, machine.threads, machine.cores, machine.memory_mb,
                params.worker.runtime_baseline_mb + 0.0 + 0.0)
            self.locality_optimizer.register_rows(arrays, rows)
            self.deployer.register_workers(WorkerViews(arrays, rows))
            self.workers_by_region[r] = arrays.workers
            self.rim.register_store(r, arrays)
            self.rim.register_durableqs(r, self.durableqs_by_region[r])

            workerlb = WorkerLB(
                sim, r, arrays,
                group_of_function=self.locality_optimizer.group_of,
                n_groups_fn=lambda: self.locality_optimizer.n_groups)
            self.workerlbs[r] = workerlb

            scheduler = Scheduler(
                sim, r, self.durableqs_by_region, workerlb,
                self.rate_limiter, self.congestion, self.config,
                params.scheduler, on_done=self._on_done)
            self.schedulers[r] = scheduler
            self._view_on_finish[r] = scheduler.on_call_finished
            self.rim.register_scheduler(r, scheduler)

            queuelb = QueueLB(sim, r, self.durableqs_by_region, self.config)
            self.queuelbs[r] = queuelb
            normal = Submitter(sim, r, queuelb, self.client_limiter,
                               params.submitter, pool="normal",
                               on_throttle=self._on_throttle,
                               kvstore=self.kvstore)
            spiky = Submitter(sim, r, queuelb, self.client_limiter,
                              params.submitter, pool="spiky",
                              on_throttle=self._on_throttle,
                              kvstore=self.kvstore)
            self.frontends[r] = SubmitterFrontend(normal, spiky)

        # --- Start controllers & samplers -----------------------------
        # Unjittered loops that share an instant fire in arming order:
        # keep this order (after the scheduler lease loops armed above).
        self.rim.start()
        self.gtc.start()
        if params.time_shifting:
            self.utilization_controller.start()
        self.locality_optimizer.start()
        if params.start_code_deployer:
            self.deployer.start()
        self.congestion.start(sim)
        sim.every(params.distinct_window_s, self.rim.sample_distinct_functions,
                  start=params.distinct_window_s)
        if params.memory_sample_interval_s > 0:
            sim.every(params.memory_sample_interval_s, self.rim.sample_memory)

        self.submitted_count = 0
        self.throttled_count = 0
        self._completion_listeners: List[Callable[[FunctionCall, CallOutcome],
                                                  None]] = []

    def add_completion_listener(
            self, listener: Callable[[FunctionCall, CallOutcome],
                                     None]) -> None:
        """Invoke ``listener(call, outcome)`` whenever a call finalizes.

        Used by trigger services (orchestration workflows chain the next
        step off a completion) and by observability tooling.
        """
        self._completion_listeners.append(listener)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def register_function(self, spec: FunctionSpec) -> None:
        """Register a function with every subsystem that tracks it."""
        if spec.name in self._specs:
            return
        if spec.namespace != self.params.namespace:
            raise ValueError(
                f"function {spec.name!r} belongs to namespace "
                f"{spec.namespace!r}; this platform hosts "
                f"{self.params.namespace!r}")
        self._specs[spec.name] = spec
        self.namespaces.assign(spec)
        # Seed the quota cost prior from the declared profile (the
        # production analogue: owners size quotas from profiling).
        self.rate_limiter.register(spec, spec.profile.cpu_minstr.mean)
        self.congestion.register(spec)
        self.locality_optimizer.register_function(spec)

    def add_elastic_pool(self, region: str, n_workers: int,
                         schedule=None) -> "ElasticPool":
        """Attach harvested elastic capacity to one region (§5.3 ext.).

        Elastic workers only run opportunistic/low-criticality calls and
        can be reclaimed mid-execution; interrupted calls are NACKed and
        retried through the normal at-least-once path.
        """
        from .elastic import ElasticPool, ElasticSchedule
        scheduler = self.schedulers[region]
        machine = self.topology.region(region).machine_spec
        store = self.workerlbs[region].arrays
        start = len(store)
        kwargs = {"schedule": schedule} if schedule is not None else {}
        # The pool's workers are born in the region's store, so the
        # WorkerLB, RIM and workers_by_region[region] see them at once.
        pool = ElasticPool(self.sim, region, n_workers, machine=machine,
                           params=self.params.worker,
                           on_finish=scheduler.on_call_finished,
                           arrays=store, **kwargs)
        rows = range(start, len(store))
        self.locality_optimizer.register_rows(store, rows)
        self.deployer.register_workers(WorkerViews(store, rows))
        return pool

    def register_spiky_client(self, team: str) -> None:
        """Move a client to the spiky submitter pool in every region."""
        for frontend in self.frontends.values():
            frontend.register_spiky_client(team)

    def submit(self, function_name: str, region: Optional[str] = None,
               start_delay_s: float = 0.0, source_level: int = 0,
               args_size_kb: float = 4.0) -> Optional[FunctionCall]:
        """Submit one call; returns the call, or None when throttled."""
        spec = self._specs.get(function_name)
        if spec is None:
            raise KeyError(f"function {function_name!r} is not registered")
        if start_delay_s < 0:
            raise ValueError("start_delay_s must be >= 0")
        if region and region not in self.topology.region_names:
            raise ValueError(
                f"unknown region {region!r}; known regions: "
                f"{self.topology.region_names}")
        region = region or self._pick_client_region()
        now = self.sim.now
        # call_id comes from the platform's own allocator: ids (and thus
        # trace digests) must depend only on this run, never on how many
        # simulations the process ran before (the in-process digest pins
        # check it) — the sweep engine compares digests across workers.
        call = FunctionCall(spec=spec, submit_time=now,
                            start_time=now + start_delay_s,
                            region_submitted=region,
                            source_level=source_level,
                            args_size_kb=args_size_kb,
                            call_id=self._call_id_allocator.allocate())
        self._calls_received.add(now)
        self.submitted_count += 1
        self.arena.add()
        accepted = self.frontends[region].submit(call)
        return call if accepted else None

    def submit_stream(self, spec: FunctionSpec, start_delay_s: float = 0.0
                      ) -> None:
        """Bulk arrival-stream submission: one call, nothing returned.

        The :class:`~repro.workloads.generator.ArrivalGenerator` fast
        path: skips the name lookup and return plumbing of
        :meth:`submit`.  Draw-for-draw identical to ``submit(spec.name,
        start_delay_s=...)`` — same RNG stream order, same counters —
        so trace digests are unchanged.
        """
        region = self._pick_client_region()
        now = self.sim.now
        call = FunctionCall(spec, now, now + start_delay_s, region,
                            call_id=self._call_id_allocator.allocate())
        self._calls_received.add(now)
        self.submitted_count += 1
        self.arena.add()
        self.frontends[region].submit(call)

    def spec(self, function_name: str) -> FunctionSpec:
        return self._specs[function_name]

    def functions(self) -> List[str]:
        return sorted(self._specs)

    @property
    def all_workers(self) -> List[Worker]:
        return [w for ws in self.workers_by_region.values() for w in ws]

    def completed_count(self) -> int:
        return sum(s.completed_count for s in self.schedulers.values())

    def pending_backlog(self) -> int:
        return sum(self.rim.region_backlog(r)
                   for r in self.topology.region_names)

    # ------------------------------------------------------------------
    # Wiring callbacks
    # ------------------------------------------------------------------
    def _worker_view(self, region: str, store: WorkerArrays,
                     row: int) -> Worker:
        """Build the view of platform worker ``row`` of ``region``.

        A fresh view holds no time-dependent state, so building it at
        its first access equals building it at time 0 and never
        touching it.
        """
        ns = self.params.namespace
        return Worker(
            self.sim, name=f"{region}/{ns}/w{row:03d}", region=region,
            namespace=ns, machine=self.topology.region(region).machine_spec,
            params=self.params.worker, jit_params=self.params.jit,
            on_finish=self._view_on_finish[region],
            downstream_gateway=self._view_gateway,
            arrays=store, index=row)

    def _pick_client_region(self) -> str:
        chooser = self._client_region_chooser
        if chooser is None:
            shares = self.topology.capacity_share(self.params.namespace)
            regions = sorted(shares)
            chooser = self.sim.rng.stream("client-region").weighted_chooser(
                regions, [max(shares[r], 1e-9) for r in regions])
            self._client_region_chooser = chooser
        return chooser()

    def _invoke_downstream(self, call: FunctionCall) -> CallOutcome:
        outcome = CallOutcome.OK
        for service_name, n in call.spec.downstream:
            service = self.services.maybe_get(service_name)
            if service is None:
                continue
            result = service.call(n)
            if result.exceptions:
                self.congestion.on_backpressure(
                    call.function_name, service_name, result.exceptions)
                ctr = self._backpressure_counters.get(service_name)
                if ctr is None:
                    ctr = self._backpressure_counters[service_name] = \
                        self.metrics.counter(f"backpressure.{service_name}")
                ctr.add(self.sim.now, result.exceptions)
            if result.failures:
                outcome = CallOutcome.ERROR
        return outcome

    def _on_done(self, call: FunctionCall, outcome: CallOutcome) -> None:
        now = self.sim.now
        if call.args_spilled:
            # The call finished: its spilled arguments are garbage.
            self.kvstore.delete(f"args/{call.call_id}")
        if outcome is CallOutcome.OK and call.dispatch_time is not None:
            self._calls_executed.add(call.dispatch_time)
            if call.resources is not None:
                cpu = call.resources[0]
                ctr = (self._cpu_reserved
                       if call.spec.quota_type is QuotaType.RESERVED
                       else self._cpu_opportunistic)
                ctr.add(call.dispatch_time, cpu)
            eligible = max(call.submit_time, call.start_time)
            self._queueing_latency.add(
                max(0.0, call.dispatch_time - eligible))
            self._completion_latency.add(now - call.submit_time)
        self.traces.add_call(call, outcome.value if outcome else "unknown")
        for listener in self._completion_listeners:
            listener(call, outcome)
        self.arena.live -= 1

    def _on_throttle(self, call: FunctionCall) -> None:
        self.throttled_count += 1
        self._calls_throttled.add(self.sim.now)
        self.traces.add_call(call, "throttled")
        self.arena.live -= 1
