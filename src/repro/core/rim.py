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

Workers are registered as store rows, so a platform registers each
region's fleet as one range and RIM never builds a cold row's view.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

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
        #: region -> number of registered workers.
        self._count_by_region: Dict[str, int] = {}
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
        """Add ``workers`` to ``region``, in order.

        RIM records the store row each worker occupies now, so register
        a pool after its store is final (after ``WorkerLB`` adoption).
        """
        for w in workers:
            self.register_rows(region, w._arrays,
                               range(w._index, w._index + 1))

    def register_rows(self, region: str, store: WorkerArrays,
                      rows: range) -> None:
        """Add the workers of ``store``'s ``rows`` (a step-1 range)."""
        positions = self._positions_by_region.setdefault(region, {})
        if region not in self._region_gauges:
            self._region_gauges[region] = self.metrics.bind_gauge(
                f"region.{region}.utilization")
        pos_of = positions.get(store)
        if pos_of is None:
            pos_of = positions[store] = array("l")
        if len(pos_of) < len(store):
            pos_of.extend(array("l", [-1]) * (len(store) - len(pos_of)))
        start, stop = rows.start, rows.stop
        if pos_of[start:stop].count(-1) != len(rows):
            raise ValueError(f"a row in {start}..{stop - 1} of this store "
                             f"is already registered in {region!r}")
        count = self._count_by_region.get(region, 0)
        pos_of[start:stop] = array("l", range(count, count + len(rows)))
        count += len(rows)
        self._count_by_region[region] = count
        self._stores_exact[region] = sum(len(s) for s in positions) == count
        self._capacity_by_region[region] = (
            self._capacity_by_region.get(region, 0)
            + sum(store.threads[start:stop]))

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
        for region, registered in sorted(self._count_by_region.items()):
            if not registered:
                continue
            ran: List[Tuple[int, int, WorkerArrays]] = []
            for store, pos_of in self._positions_by_region[region].items():
                n_rows = len(pos_of)
                for row in store.active:
                    pos = pos_of[row] if row < n_rows else -1
                    if pos >= 0:
                        ran.append((pos, row, store))
                store.window_start = now
            # Registration order (positions are unique) and an explicit
            # left-to-right sum: bit-identical to summing every worker's
            # window in order.
            ran.sort()
            region_busy = 0.0
            for _, row, store in ran:
                cpu = store.view(row).cpu
                region_busy += cpu.take_window(now)
                if cpu.load == 0.0:
                    # Exact zero only: a float residue keeps accruing.
                    store.active.discard(row)
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
        return float(self._capacity_by_region.get(region, 0))

    def region_free_threads(self, region: str) -> int:
        # Admission caps running <= threads per worker, so capacity minus
        # the stores' O(1) running totals equals the old per-worker sum.
        positions = self._positions_by_region.get(region, {})
        if self._stores_exact.get(region, True):
            running = 0
            for s in positions:
                running += s.total_running
            return self._capacity_by_region.get(region, 0) - running
        # Store mismatch fallback: the registered rows only.
        total = 0
        for store, pos_of in positions.items():
            threads, live = store.threads, store.running
            for row, pos in enumerate(pos_of):
                if pos >= 0:
                    total += max(0, threads[row] - live[row])
        return total

    def regions(self) -> List[str]:
        return sorted(set(self._count_by_region)
                      | set(self._durableqs_by_region))
