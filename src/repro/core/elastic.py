"""Elastic (harvest) capacity for opportunistic functions.

§5.3: "Using opportunistic quota would allow XFaaS to further reduce its
peak capacity needs, as well as run these functions with low-cost
elastic capacity, which is similar to AWS' Spot Instances."  The paper
lists this as ongoing work; this module implements it as an extension.

An :class:`ElasticPool` adds workers that appear and disappear on a
schedule (capacity harvested from other services' troughs).  Elastic
workers only accept opportunistic / low-criticality calls — reserved
SLOs must never depend on capacity that can vanish.  On reclaim,
running calls are killed and NACKed back to their DurableQs; XFaaS's
at-least-once semantics re-runs them elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..cluster.machine import MachineSpec
from ..sim.kernel import Simulator
from .call import FunctionCall
from .worker import Worker, WorkerParams
from .workerarrays import WorkerArrays


class ElasticWorker(Worker):
    """A worker that only accepts background (opportunistic/LOW) calls
    and can be reclaimed at any moment."""

    __slots__ = ("available", "reclaim_count")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.available = False
        self.reclaim_count = 0

    def can_admit(self, call: FunctionCall
                  ) -> Optional[Tuple[float, float, float]]:
        # Refused before the base check: no resources are drawn.
        if not self.available or not self._is_background(call):
            return None
        return super().can_admit(call)

    def reclaim(self) -> None:
        """The capacity owner takes the machine back mid-execution.

        Interrupted calls NACK back through the at-least-once path,
        exactly like a machine failure."""
        self.available = False
        self.reclaim_count += 1
        self._interrupt_all()

    def grant(self) -> None:
        self.available = True


@dataclass(frozen=True)
class ElasticSchedule:
    """When harvested capacity is available, as fractions of the day.

    Default: elastic workers exist during the donor services' trough —
    roughly the hours when XFaaS itself is at its reserved-load peak's
    mirror (night hours of the donor)."""

    available_windows: tuple = ((0.0, 6 * 3600.0), (20 * 3600.0, 86_400.0))

    def is_available(self, t: float) -> bool:
        tod = t % 86_400.0
        return any(lo <= tod < hi for lo, hi in self.available_windows)


class ElasticPool:
    """Manages a region's elastic workers against a schedule.

    The workers are born as rows of ``arrays``, the region's store (a
    store of the pool's own when none is given).
    """

    def __init__(self, sim: Simulator, region: str, n_workers: int,
                 machine: MachineSpec = MachineSpec(),
                 params: WorkerParams = WorkerParams(),
                 schedule: ElasticSchedule = ElasticSchedule(),
                 check_interval_s: float = 60.0,
                 on_finish: Optional[Callable] = None,
                 arrays: Optional[WorkerArrays] = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.sim = sim
        self.region = region
        self.schedule = schedule
        store = arrays if arrays is not None else WorkerArrays()
        self.workers: List[ElasticWorker] = [
            ElasticWorker(sim, f"{region}/elastic{w:02d}", region,
                          machine=machine, params=params,
                          on_finish=on_finish, arrays=store)
            for w in range(n_workers)]
        self.grants = 0
        self.reclaims = 0
        self._task = sim.every(check_interval_s, self._check)
        self._check()

    def _check(self) -> None:
        available = self.schedule.is_available(self.sim.now)
        # Legitimate: grant/reclaim must touch every elastic view; pools
        # are small and the sweep runs once a minute.
        for worker in self.workers:
            if available and not worker.available:
                worker.grant()
                self.grants += 1
            elif not available and worker.available:
                worker.reclaim()
                self.reclaims += 1

    @property
    def available_workers(self) -> List[ElasticWorker]:
        return [w for w in self.workers if w.available]

    def stop(self) -> None:
        self._task.cancel()
