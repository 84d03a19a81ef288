"""RIM: global Resource Isolation and Management metrics (§1.2, §4.6.3).

Rather than letting each component decide from local signals, XFaaS
collects global metrics across systems — worker utilization per region,
queue backlog per region, free capacity — and makes them available to
the central controllers (Global Traffic Conductor, Utilization
Controller) and benchmarks.

RIM is the *single consumer* of the workers' rolling utilization
windows.  Each interval it publishes per-region and fleet-wide
utilization, which is exactly the quantity in Figures 7 and 8.  The
sample costs O(workers that ran since the last one), not O(fleet): it
takes windows only for the rows in each store's
:attr:`~repro.core.workerarrays.WorkerArrays.active` set.  Every other
worker was idle for the whole window, so its window is exactly ``0.0``,
and leaving ``0.0`` out of a left-to-right float sum changes no bit
(``x + 0.0 == x``).  The denominator is still every worker.

A region's pool is its :class:`~repro.core.workerarrays.WorkerArrays`
store, registered once: the worker count is ``len(store)``, capacity
and free threads are the store's aggregates, and rows the store gains
later (elastic workers) count from the moment they are born.  RIM never
builds a cold row's view.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..metrics.recorder import MetricsRegistry
from ..metrics.timeseries import Gauge
from ..sim.kernel import Simulator
from ..sim.sampler import SamplerHub
from .durableq import DurableQ
from .scheduler import Scheduler
from .workerarrays import WorkerArrays


class Rim:
    """Fleet-wide metric collection."""

    def __init__(self, sim: Simulator, metrics: MetricsRegistry,
                 sample_interval_s: float = 60.0,
                 timers: Optional[SamplerHub] = None) -> None:
        self.sim = sim
        self.metrics = metrics
        self.sample_interval_s = sample_interval_s
        self._timers = timers
        #: region -> its worker store.
        self._stores: Dict[str, WorkerArrays] = {}
        self._durableqs_by_region: Dict[str, List[DurableQ]] = {}
        self._schedulers_by_region: Dict[str, Scheduler] = {}
        self._region_util: Dict[str, float] = {}
        self._fleet_util: float = 0.0
        self._task = None
        self._fleet_gauge = metrics.gauge("fleet.utilization")
        #: region -> bound utilization gauge: no f-string gauge lookup
        #: inside the sampling loop (xbench ``control.self_s`` measures
        #: the loop).
        self._region_gauges: Dict[str, Gauge] = {}

    # ------------------------------------------------------------------
    def register_store(self, region: str, store: WorkerArrays) -> None:
        """Make ``store`` the worker pool of ``region``, once."""
        for other, registered in self._stores.items():
            if registered is store:
                raise ValueError(f"store already registered in {other!r}")
        if region in self._stores:
            raise ValueError(f"{region!r} already has a worker store")
        self._stores[region] = store
        self._region_gauges[region] = self.metrics.gauge(
            f"region.{region}.utilization")

    def register_durableqs(self, region: str, shards: List[DurableQ]) -> None:
        self._durableqs_by_region.setdefault(region, []).extend(shards)

    def register_scheduler(self, region: str, scheduler: Scheduler) -> None:
        self._schedulers_by_region[region] = scheduler

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("RIM already started")
        timers = self._timers if self._timers is not None else self.sim
        self._task = timers.every(self.sample_interval_s, self.sample,
                                  start=self.sim.now + self.sample_interval_s)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Take one utilization window across the fleet."""
        now = self.sim.now
        total_busy_fraction = 0.0
        total_workers = 0
        for region, store in sorted(self._stores.items()):
            registered = len(store)
            if not registered:
                continue
            # Row order is registration order, and the explicit
            # left-to-right sum is bit-identical to summing every
            # worker's window in order.
            region_busy = 0.0
            active = store.active
            for row in sorted(active):
                cpu = store.view(row).cpu
                region_busy += cpu.take_window(now)
                if cpu.load == 0.0:
                    # Exact zero only: a float residue keeps accruing.
                    active.discard(row)
            store.window_start = now
            region_util = region_busy / registered
            self._region_util[region] = region_util
            self._region_gauges[region].set(now, region_util)
            total_busy_fraction += region_busy
            total_workers += registered
        if total_workers:
            self._fleet_util = total_busy_fraction / total_workers
            self._fleet_gauge.set(now, self._fleet_util)

    # ------------------------------------------------------------------
    # Views consumed by controllers
    # ------------------------------------------------------------------
    def fleet_utilization(self) -> float:
        return self._fleet_util

    def region_utilization(self, region: str) -> float:
        return self._region_util.get(region, 0.0)

    def region_backlog(self, region: str) -> int:
        """Ready calls in the region's DurableQs + scheduler buffers."""
        backlog = sum(q.ready_count() for q
                      in self._durableqs_by_region.get(region, ()))
        sched = self._schedulers_by_region.get(region)
        if sched is not None:
            backlog += sched.pending_demand
        return backlog

    def region_capacity(self, region: str) -> float:
        """Aggregate worker thread capacity (supply proxy for the GTC)."""
        store = self._stores.get(region)
        return float(store.capacity_threads if store is not None else 0)

    def region_free_threads(self, region: str) -> int:
        store = self._stores.get(region)
        return store.free_threads() if store is not None else 0

    def regions(self) -> List[str]:
        return sorted(set(self._stores) | set(self._durableqs_by_region))
