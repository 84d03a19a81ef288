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
(``x + 0.0 == x``).  The denominator is still every registered worker.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from ..metrics.recorder import MetricsRegistry
from ..metrics.timeseries import Gauge
from ..sim.kernel import Simulator
from ..sim.sampler import SamplerHub
from .durableq import DurableQ
from .scheduler import Scheduler
from .worker import Worker
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
        self._workers_by_region: Dict[str, List[Worker]] = {}
        #: region -> {store: row -> registration position, -1 for rows
        #: not registered here}.  Dicts keep store registration order.
        self._positions_by_region: Dict[
            str, Dict[WorkerArrays, "array[int]"]] = {}
        #: region -> True while its stores hold registered rows only, so
        #: free threads can be read from the stores' running totals.
        self._stores_exact: Dict[str, bool] = {}
        self._capacity_by_region: Dict[str, int] = {}
        self._durableqs_by_region: Dict[str, List[DurableQ]] = {}
        self._schedulers_by_region: Dict[str, Scheduler] = {}
        self._region_util: Dict[str, float] = {}
        self._fleet_util: float = 0.0
        self._task = None
        self._fleet_gauge = metrics.bind_gauge("fleet.utilization")
        #: region -> bound utilization gauge (simlint SL007: no f-string
        #: gauge lookup inside the sampling loop).
        self._region_gauges: Dict[str, Gauge] = {}

    # ------------------------------------------------------------------
    def register_workers(self, region: str, workers: List[Worker]) -> None:
        """Add ``workers`` to ``region``.

        RIM records the store row each worker occupies now, so register
        a pool after its store is final (after ``WorkerLB`` adoption).
        """
        registered = self._workers_by_region.setdefault(region, [])
        positions = self._positions_by_region.setdefault(region, {})
        if region not in self._region_gauges:
            self._region_gauges[region] = self.metrics.bind_gauge(
                f"region.{region}.utilization")
        for w in workers:
            store = w._arrays
            rows = positions.get(store)
            if rows is None:
                rows = positions[store] = array("l")
            if len(rows) < len(store):
                rows.extend(array("l", [-1]) * (len(store) - len(rows)))
            if rows[w._index] != -1:
                raise ValueError(f"worker {w.name!r} is already registered")
            rows[w._index] = len(registered)
            registered.append(w)
        self._stores_exact[region] = (
            sum(len(s) for s in positions) == len(registered))
        self._capacity_by_region[region] = sum(
            w.machine.threads for w in registered)

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
        regions = sorted(self._workers_by_region.items())
        for region, registered in regions:
            if not registered:
                continue
            ran: List[int] = []
            for store, rows in self._positions_by_region[region].items():
                n_rows = len(rows)
                for row in store.active:
                    pos = rows[row] if row < n_rows else -1
                    if pos >= 0:
                        ran.append(pos)
                store.window_start = now
            # Registration order and an explicit left-to-right sum:
            # bit-identical to summing every worker's window in order.
            ran.sort()
            region_busy = 0.0
            for pos in ran:
                w = registered[pos]
                cpu = w.cpu
                region_busy += cpu.take_window(now)
                if cpu.load == 0.0:
                    # Exact zero only: a float residue keeps accruing.
                    w._arrays.active.discard(w._index)
            region_util = region_busy / len(registered)
            self._region_util[region] = region_util
            self._region_gauges[region].set(now, region_util)
            total_busy_fraction += region_busy
            total_workers += len(registered)
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
        return float(self._capacity_by_region.get(region, 0))

    def region_free_threads(self, region: str) -> int:
        # Admission caps running <= threads per worker, so capacity minus
        # the stores' O(1) running totals equals the old per-worker sum.
        if self._stores_exact.get(region, True):
            running = 0
            for s in self._positions_by_region.get(region, ()):
                running += s.total_running
            return self._capacity_by_region.get(region, 0) - running
        workers = self._workers_by_region.get(region, ())
        total = 0
        for w in workers:  # simlint: disable=SL008 -- store mismatch fallback
            total += max(0, w.machine.threads - w.running_count)
        return total

    def regions(self) -> List[str]:
        return sorted(set(self._workers_by_region)
                      | set(self._durableqs_by_region))
