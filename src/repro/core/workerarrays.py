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
    ``group`` is written only through :meth:`WorkerArrays.set_group`.

One home per row
----------------
A region's store *is* its worker pool.  Every row is born in the store
it lives in, through :meth:`WorkerArrays.add_rows` (a ``Worker`` built
on a store appends its row there), and keeps its index for life; rows
never move between stores.  The WorkerLB, RIM and ``workers_by_region``
read the store instead of keeping their own membership lists, so a row
appended mid-run (an elastic pool) joins all of them at once.
``group_epoch`` moves on every row append and every ``group`` write,
and a WorkerLB rebuilds its group index when it does.

Cold rows
---------
A cold worker is a row, not an object.  :meth:`WorkerArrays.add_rows`
fills the columns of ``n`` identical fresh workers in bulk, and a row's
view is built by the store's ``make_view(store, row)`` the first time
:meth:`WorkerArrays.view` asks for it: a WorkerLB probe, an index into
:attr:`WorkerArrays.workers`, a failure injection or a code push.  Until
then ``views[row]`` is ``None``.  Building late is exact: a fresh
``Worker`` holds no time-dependent state (its ``RuntimeJit`` is warm,
its ``CpuAccount`` is idle since 0.0, its ``CodeVersion`` is the
initial one), and nothing but a view changes a row's ``running``,
``cpu_load``, ``mem_mb`` or ``online``.  Columns that controllers write
without a view (``group``) live in the store, so the view reads them
whenever it is built.  A platform of 100k workers that probes 14k of
them builds 14k views.

Aggregates
----------
``total_running`` is maintained O(1) on the execute/complete path, and
``capacity_threads`` on every append, so fleet-level supply and demand
signals (RIM capacity and free threads) never need an O(n) scan over
worker objects inside a sim-clock handler.  A scan would build every
lazy view, which ``test_cold_rows.py::TestViewsBuiltOnFirstAccess``
rejects, and xbench fleet-100k shows its cost.

Active rows
-----------
``active`` holds the rows whose :class:`~repro.cluster.machine.CpuAccount`
may be non-idle since the last RIM utilization window, which started at
``window_start``.  ``Worker.execute`` is the only place CPU load rises,
and it adds its row.  Every other row has ``load == 0.0`` and an empty
window, so its utilization window is exactly ``0.0`` and RIM skips it.
Only its ``_window_start`` goes stale, and ``Worker.execute`` lifts that
to ``window_start`` when the row rejoins the set.  Rows appended after
the store's first sample (elastic pools) start in the set, because
their window start is their own and not the store's.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Set, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (worker views)
    from .worker import Worker

#: ``make_view(store, row)`` builds the view of a row added by ``add_rows``.
ViewFactory = Callable[["WorkerArrays", int], "Worker"]


class WorkerArrays:
    """Dense per-region columns of worker hot state.

    Rows are append-only: a worker keeps its integer index for life.
    ``views[i]`` is the :class:`~repro.core.worker.Worker` view for row
    ``i``, or ``None`` while that cold row has never been accessed;
    :meth:`view` builds it.
    """

    __slots__ = ("views", "make_view", "running", "cpu_load", "mem_mb",
                 "threads", "cores", "memory_mb", "online", "group",
                 "total_running", "capacity_threads", "group_epoch",
                 "active", "window_start")

    def __init__(self, make_view: Optional[ViewFactory] = None) -> None:
        #: index -> Worker view (None until first access), aligned with
        #: every column.
        self.views: List[Optional["Worker"]] = []
        self.make_view = make_view
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
        #: Sum of ``threads`` over all rows, maintained by ``add_rows``.
        self.capacity_threads = 0
        #: Bumped by every row append and every ``group`` write; a
        #: WorkerLB rebuilds its group index when it moves.
        self.group_epoch = 0
        #: Rows that may have accrued CPU time since ``window_start``.
        self.active: Set[int] = set()
        #: Start of the current RIM utilization window (set by RIM).
        self.window_start = 0.0

    def __len__(self) -> int:
        return len(self.views)

    @property
    def workers(self) -> "WorkerViews":
        """Every row's view, built on access; grows with the store."""
        return WorkerViews(self)

    def view(self, row: int) -> "Worker":
        """The view of ``row``, built now if this is its first access."""
        worker = self.views[row]
        if worker is None:
            worker = self.views[row] = self.make_view(self, row)
        return worker

    def built_views(self) -> List["Worker"]:
        """The views built so far, in row order."""
        return [w for w in self.views if w is not None]

    # ------------------------------------------------------------------
    def add_rows(self, n: int, threads: int, cores: int, memory_mb: float,
                 mem0_mb: float) -> range:
        """Append ``n`` fresh workers' rows, with no views; returns them.

        This is the only way a row is born: ``make_view`` builds a
        row's view when it is first accessed, and a ``Worker`` built on
        this store appends its row here and installs itself as the view.
        """
        start = len(self.views)
        if self.window_start > 0.0:
            # A fresh account's window starts at 0.0, not at the
            # store's last sample: RIM must take its first window.
            self.active.update(range(start, start + n))
        self.views += [None] * n
        self.running += array("l", [0]) * n
        self.cpu_load += array("d", [0.0]) * n
        self.mem_mb += array("d", [mem0_mb]) * n
        self.threads += array("l", [threads]) * n
        self.cores += array("l", [cores]) * n
        self.memory_mb += array("d", [memory_mb]) * n
        self.online += array("b", [1]) * n
        self.group += array("l", [0]) * n
        self.capacity_threads += threads * n
        self.group_epoch += 1
        return range(start, start + n)

    def set_group(self, rows: Union[int, slice],
                  group: Union[int, "array[int]"]) -> None:
        """Write the ``group`` column of a row (or a slice of rows).

        Every group write goes through here, so ``group_epoch`` tells a
        WorkerLB exactly when its group index is stale.
        """
        self.group[rows] = group
        self.group_epoch += 1

    def load_score(self, row: int) -> float:
        """Scalar load of ``row``: max of thread, CPU and memory use."""
        a = self.running[row] / self.threads[row]
        b = self.cpu_load[row] / self.cores[row]
        c = self.mem_mb[row] / self.memory_mb[row]
        if b > a:
            a = b
        return c if c > a else a

    # ------------------------------------------------------------------
    # Whole-store aggregates
    # ------------------------------------------------------------------
    def free_threads(self) -> int:
        """Capacity minus live calls; admission caps running <= threads
        per worker, so the difference never goes negative per row."""
        return self.capacity_threads - self.total_running


class WorkerViews(Sequence):
    """Rows of a store as a sequence of views, each built on access.

    ``rows`` fixes the rows; ``None`` means every row of the store,
    including rows it gains later (a region's elastic workers).
    """

    __slots__ = ("store", "rows")

    def __init__(self, store: WorkerArrays,
                 rows: Optional[range] = None) -> None:
        self.store = store
        self.rows = rows

    def _rows(self) -> range:
        return range(len(self.store)) if self.rows is None else self.rows

    def __len__(self) -> int:
        return len(self._rows())

    def __getitem__(self, i):  # type: ignore[override]
        rows = self._rows()
        if isinstance(i, slice):
            return [self.store.view(r) for r in rows[i]]
        return self.store.view(rows[i])

    def __iter__(self) -> Iterator["Worker"]:
        view = self.store.view
        for row in self._rows():
            yield view(row)
