"""Struct-of-arrays store for per-worker hot state (the fleet layer).

Two optimization rounds (PR 1 kernel, PR 4 component fast path) left the
per-*event* cost low enough that fleet *size* became the binding
ceiling: every admission probe, two-choices draw, and load-score read
chased pointers through a Python ``Worker`` object, and a 100k-worker
fleet meant 100k such objects on every aggregate scan.  This module
flips the layout: one :class:`WorkerArrays` per region holds the hot
scalars in flat ``array`` columns, indexed by a dense integer worker
index, and the ``Worker`` objects become *views* — they keep the cold
machinery (JIT ramp, resident-set LRU, call bookkeeping, failure
injection) and read/write their row of the columns.

Layout contract
---------------
Columns are plain :mod:`array` arrays, so reads return native Python
ints/floats and every arithmetic expression computes bit-for-bit the
same result as the attribute-chasing code it replaced — trace digests
are unchanged by the refactor.  Column meanings:

``running``
    Live call count (mirror of ``len(worker._running)``).
``cpu_load``
    The worker's :class:`~repro.cluster.machine.CpuAccount` load, copied
    after every start/finish (same float object value).
``mem_mb``
    ``baseline + resident + live`` memory, recomputed (not accumulated)
    after every mutation so the float equals the old expression exactly.
``threads`` / ``cores`` / ``memory_mb``
    Per-worker machine constants, denominators of the load score.
``online`` / ``group``
    Admission flag and locality-group id (the ``Worker`` properties
    ``online`` / ``locality_group`` are backed by these columns).

Aggregates
----------
``total_running`` is maintained O(1) on the execute/complete path so
fleet-level demand signals (RIM free threads) never need an O(n) scan
over worker objects inside a sim-clock handler — the anti-pattern
simlint rule SL008 flags.

Active rows
-----------
``active`` holds the rows whose :class:`~repro.cluster.machine.CpuAccount`
may be non-idle since the last RIM utilization window, which started at
``window_start``.  ``Worker.execute`` is the only place CPU load rises,
and it adds its row.  Every other row has ``load == 0.0`` and an empty
window, so its utilization window is exactly ``0.0`` and RIM skips it.
Only its ``_window_start`` goes stale, and ``Worker.execute`` lifts that
to ``window_start`` when the row rejoins the set.  Rows that join the
store mid-run (elastic pools, adoption) start in the set, because
their window start is their own and not the store's.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (worker views)
    from .worker import Worker


class WorkerArrays:
    """Dense per-region columns of worker hot state.

    Rows are append-only: a worker keeps its integer index for life.
    ``workers[i]`` is the thin :class:`~repro.core.worker.Worker` view
    for row ``i`` (cold paths — code deploy, crash injection — go
    through it).
    """

    __slots__ = ("workers", "running", "cpu_load", "mem_mb", "threads",
                 "cores", "memory_mb", "online", "group", "total_running",
                 "active", "window_start")

    def __init__(self) -> None:
        #: index -> Worker view, aligned with every column.
        self.workers: List["Worker"] = []
        self.running = array("l")
        self.cpu_load = array("d")
        self.mem_mb = array("d")
        self.threads = array("l")
        self.cores = array("l")
        self.memory_mb = array("d")
        self.online = array("b")
        self.group = array("l")
        #: Sum of ``running`` over all rows, maintained incrementally.
        self.total_running = 0
        #: Rows that may have accrued CPU time since ``window_start``.
        self.active: Set[int] = set()
        #: Start of the current RIM utilization window (set by RIM).
        self.window_start = 0.0

    def __len__(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    def add(self, worker: "Worker", threads: int, cores: int,
            memory_mb: float, mem0_mb: float) -> int:
        """Append a row for ``worker``; returns its permanent index."""
        idx = len(self.workers)
        if self.window_start > 0.0:
            # A fresh account's window starts at 0.0, not at the
            # store's last sample: RIM must take its first window.
            self.active.add(idx)
        self.workers.append(worker)
        self.running.append(0)
        self.cpu_load.append(0.0)
        self.mem_mb.append(mem0_mb)
        self.threads.append(threads)
        self.cores.append(cores)
        self.memory_mb.append(memory_mb)
        self.online.append(1)
        self.group.append(0)
        return idx

    def adopt(self, worker: "Worker") -> int:
        """Re-home ``worker`` (and its current hot state) into this store.

        Used when a pool is assembled from workers constructed against
        private stores (tests, elastic pools built standalone).  The
        worker's row in its old store is left behind unreferenced.
        """
        old = worker._arrays
        if old is self:
            return worker._index
        i = worker._index
        idx = len(self.workers)
        self.active.add(idx)
        self.workers.append(worker)
        self.running.append(old.running[i])
        self.cpu_load.append(old.cpu_load[i])
        self.mem_mb.append(old.mem_mb[i])
        self.threads.append(old.threads[i])
        self.cores.append(old.cores[i])
        self.memory_mb.append(old.memory_mb[i])
        self.online.append(old.online[i])
        self.group.append(old.group[i])
        self.total_running += old.running[i]
        old.total_running -= old.running[i]
        worker._arrays = self
        worker._index = idx
        return idx

    # ------------------------------------------------------------------
    # Whole-store aggregates (order-stable, index order)
    # ------------------------------------------------------------------
    def capacity_threads(self) -> int:
        """Total thread capacity across all rows (static between adds)."""
        return sum(self.threads)

    def free_threads(self) -> int:
        """Capacity minus live calls; admission caps running <= threads
        per worker, so the difference never goes negative per row."""
        return sum(self.threads) - self.total_running
