"""WorkerLB: locality-aware power-of-two-choices dispatch (§4.5.2).

When routing a call, the WorkerLB picks two random workers *from the
function's worker locality group* and dispatches to the less loaded one
— "the power of two random choices" with locality layered on top.  If
both refuse (admission control), it probes a bounded number of further
candidates before reporting failure back to the scheduler.

Since the struct-of-arrays refactor the hot loop never touches a
``Worker`` object until it probes admission: locality groups are
``array`` columns of integer worker indices into the region's
:class:`~repro.core.workerarrays.WorkerArrays`, the two-choices draws
pick indices, and both load-score probes read flat columns.  The first
admission probe of a cold row builds its view.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..sim.kernel import Simulator
from .call import FunctionCall
from .worker import Worker
from .workerarrays import WorkerArrays

GroupLookup = Callable[[str], int]


class WorkerLB:
    """Load balancer over one region's worker pool for one namespace.

    The pool is every row of ``self.arrays``.  Pass the store itself
    (the platform does, so its cold rows stay rows) or a list of
    workers: a list that is not exactly one store's rows in order is
    adopted into a fresh store.  :meth:`add_workers` grows the pool.
    """

    def __init__(self, sim: Simulator, region: str,
                 workers: Union[WorkerArrays, Sequence[Worker]],
                 group_of_function: GroupLookup,
                 n_groups_fn: Callable[[], int],
                 extra_probes: int = 2,
                 rng_name: Optional[str] = None,
                 group_epoch_fn: Optional[Callable[[], int]] = None) -> None:
        if not isinstance(workers, WorkerArrays):
            workers = list(workers)
            store = workers[0]._arrays if workers else WorkerArrays()
            if (len(store) != len(workers)
                    or any(w._arrays is not store or w._index != i
                           for i, w in enumerate(workers))):
                store = WorkerArrays()
                for w in workers:
                    store.adopt(w)
            workers = store
        if not len(workers):
            raise ValueError(f"WorkerLB in {region!r} needs workers")
        self.sim = sim
        self.region = region
        self.arrays = workers
        self.group_of_function = group_of_function
        self.n_groups_fn = n_groups_fn
        self.extra_probes = extra_probes
        self.rng = sim.rng.stream(rng_name or f"workerlb/{region}")
        # Draws bypass random.Random.choice: the probe loop below inlines
        # Random._randbelow_with_getrandbits bit-for-bit, so only the raw
        # getrandbits source is needed (same stream consumption).
        self._getrandbits = self.rng._rng.getrandbits
        self.dispatch_count = 0
        self.reject_count = 0
        self.out_of_group_dispatches = 0
        #: Cheap invalidation: when the Locality Optimizer exposes a group
        #: epoch, the cache key is (n_groups, epoch) instead of a hash
        #: over every worker's group id per dispatch.
        self.group_epoch_fn = group_epoch_fn
        self._groups_cache_key: Optional[object] = None
        self._groups: Dict[int, "array[int]"] = {}
        self._all_idx: "array[int]" = array("l", range(len(self.arrays)))
        self._capacity_threads = self.arrays.capacity_threads()
        # Epoch-path cache key unpacked into two ints so the dispatch
        # fast path compares without building a tuple.
        self._ck_groups = -1
        self._ck_epoch = -1

    # ------------------------------------------------------------------
    def add_workers(self, new_workers: List[Worker]) -> None:
        """Grow the pool (elastic capacity): adopt rows, invalidate caches."""
        store = self.arrays
        for w in new_workers:
            self._all_idx.append(store.adopt(w))
        self._capacity_threads = store.capacity_threads()
        self._groups_cache_key = None
        self._ck_groups = -1
        self._ck_epoch = -1

    # ------------------------------------------------------------------
    def group_workers(self, group: int) -> List[Worker]:
        """Workers currently assigned to a locality group."""
        self._refresh_groups()
        view = self.arrays.view
        return [view(i) for i in self._groups.get(group, array("l"))]

    def _refresh_groups(self) -> None:
        n_groups = max(1, self.n_groups_fn())
        # Workers carry their group id (the ``group`` column, set by the
        # Locality Optimizer); rebuild the index when assignments change.
        if self.group_epoch_fn is not None:
            epoch = self.group_epoch_fn()
            if n_groups != self._ck_groups or epoch != self._ck_epoch:
                self._rebuild_groups(n_groups, epoch)
            return
        key = hash((n_groups,) + tuple(self.arrays.group))
        if key == self._groups_cache_key:
            return
        self._build_group_index(n_groups)
        self._groups_cache_key = key

    def _rebuild_groups(self, n_groups: int, epoch: int) -> None:
        self._build_group_index(n_groups)
        self._ck_groups = n_groups
        self._ck_epoch = epoch
        self._groups_cache_key = (n_groups, epoch)

    def _build_group_index(self, n_groups: int) -> None:
        groups: Dict[int, "array[int]"] = {}
        group_col = self.arrays.group
        for i in self._all_idx:
            g = group_col[i] % n_groups
            bucket = groups.get(g)
            if bucket is None:
                bucket = groups[g] = array("l")
            bucket.append(i)
        self._groups = groups

    # ------------------------------------------------------------------
    def dispatch(self, call: FunctionCall) -> bool:
        """Route ``call`` to a worker; False when every candidate refused.

        Locality is a *preference*, not isolation: if every probe in the
        function's locality group refuses admission (its workers hogged
        by long CPU-bound calls), the call spills to the whole pool
        rather than stranding idle capacity in other groups — the same
        spirit as the Locality Optimizer moving workers between groups
        under load imbalance (§4.5.2), but at per-call granularity.
        """
        epoch_fn = self.group_epoch_fn
        if epoch_fn is not None:
            # Inlined _refresh_groups fast path: one epoch read and an
            # int compare per dispatch.  The group *count* is re-read
            # only when the epoch advances — the Locality Optimizer's
            # count is fixed after construction, while every worker
            # (re)assignment bumps the epoch.
            epoch = epoch_fn()
            if epoch != self._ck_epoch:
                n_groups = self.n_groups_fn()
                if n_groups < 1:
                    n_groups = 1
                self._rebuild_groups(n_groups, epoch)
        else:
            self._refresh_groups()
        all_idx = self._all_idx
        group = self.group_of_function(call.spec.name)
        candidates = self._groups.get(group) or all_idx
        # The two-choices draw sequence is inlined below (identical
        # getrandbits consumption to random.choice); the loop runs once
        # over the locality group, then — only if every in-group probe
        # refused — once more over the whole pool.  ``a``/``b`` are
        # integer store rows; uniqueness of rows in a pool makes the
        # ``==`` dedup equivalent to the old object ``is`` check.
        getrandbits = self._getrandbits
        extra_probes = self.extra_probes
        arr = self.arrays
        running = arr.running
        cpu_load = arr.cpu_load
        mem_mb = arr.mem_mb
        threads = arr.threads
        cores = arr.cores
        memory_mb = arr.memory_mb
        views = arr.views
        pool = candidates
        spilled = False
        while True:
            n = len(pool)
            if n == 1:
                order = [pool[0]]
            else:
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                a = pool[r]
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                b = pool[r]
                while b == a:
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    b = pool[r]
                # Worker.load_score() inlined for both probes (identical
                # arithmetic on the flat columns; no subclass overrides
                # it).
                sa = running[a] / threads[a]
                x = cpu_load[a] / cores[a]
                if x > sa:
                    sa = x
                x = mem_mb[a] / memory_mb[a]
                if x > sa:
                    sa = x
                sb = running[b] / threads[b]
                x = cpu_load[b] / cores[b]
                if x > sb:
                    sb = x
                x = mem_mb[b] / memory_mb[b]
                if x > sb:
                    sb = x
                order = [a, b] if sa <= sb else [b, a]
                for _ in range(extra_probes):
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    extra = pool[r]
                    if extra not in order:
                        order.append(extra)
            for idx in order:
                worker = views[idx]
                if worker is None:
                    worker = arr.view(idx)
                if worker.execute(call):
                    self.dispatch_count += 1
                    if spilled:
                        self.out_of_group_dispatches += 1
                    return True
            if spilled or len(candidates) >= len(all_idx):
                self.reject_count += 1
                return False
            pool = all_idx
            spilled = True

    # ------------------------------------------------------------------
    def pool_load(self) -> float:
        """Mean load score across the pool (RIM/GTC input).

        Loops over the flat columns, accumulating exactly like the old
        ``sum(w.load_score() ...)`` (int 0 start, same addition order)
        so the mean is bit-identical.
        """
        arr = self.arrays
        running = arr.running
        cpu_load = arr.cpu_load
        mem_mb = arr.mem_mb
        threads = arr.threads
        cores = arr.cores
        memory_mb = arr.memory_mb
        total = 0
        for i in self._all_idx:
            a = running[i] / threads[i]
            b = cpu_load[i] / cores[i]
            if b > a:
                a = b
            b = mem_mb[i] / memory_mb[i]
            if b > a:
                a = b
            total = total + a
        return total / len(self._all_idx)

    def free_threads(self) -> int:
        # Admission caps running <= threads per worker, so the O(1)
        # aggregate equals the old per-worker max(0, ...) sum.
        return self._capacity_threads - self.arrays.total_running
