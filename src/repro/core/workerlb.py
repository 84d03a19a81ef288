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

Most probes on a saturated fleet refuse on CPU, so ``dispatch`` refuses
the hopeless ones before entering ``Worker.execute``.  Once the call's
resources are drawn (by its first probe) and it passes the isolation
check, a drawn row whose ``cpu_load`` plus the call's load at JIT speed
1 exceeds the worker's base CPU budget is refused with the one side
effect a refused ``execute`` has: ``admission_rejections += 1``.  The
bound is exact, not a heuristic.  JIT speed is at most 1, and IEEE
division and addition are monotone under rounding, so the real CPU load
is at least the speed-1 load.  The base budget is the largest budget a
call can get, because ``background_admission_fraction`` is at most 1.
A subclass only adds refusals to the base admission (the ``Worker``
contract), so every row the bound refuses, ``execute`` refuses too.
The bound is therefore only a shortcut: a row it does not judge (a
cold row, whose view is not built to judge it, or any row while the
call's resources are undrawn) goes to ``execute``, which refuses it
the same way.

Each pass draws first and judges second.  The extra-probe draws do not
depend on the load scores, so drawing both choices and the extras
before scoring consumes the same ``getrandbits`` sequence.  The bound
then judges every drawn row that has a view, once.  When it refuses all
of them, each gets its refusal and the load scores and probe order are
skipped: all of them refuse, so their order cannot matter, and no view
is built.  Otherwise the pass scores the two choices and probes in
order, refusing the judged rows as it reaches them.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Optional

from ..sim.kernel import Simulator
from .call import FunctionCall
from .workerarrays import WorkerArrays

GroupLookup = Callable[[str], int]


class WorkerLB:
    """Load balancer over one region's worker pool for one namespace.

    The pool is every row of ``arrays``, the region's store, including
    rows it gains later (elastic workers are born there).  The group
    index is rebuilt on the first dispatch after the store's
    ``group_epoch`` moves, which every row append and group write does.
    """

    def __init__(self, sim: Simulator, region: str, arrays: WorkerArrays,
                 group_of_function: GroupLookup,
                 n_groups_fn: Callable[[], int],
                 extra_probes: int = 2,
                 rng_name: Optional[str] = None) -> None:
        if not len(arrays):
            raise ValueError(f"WorkerLB in {region!r} needs workers")
        self.sim = sim
        self.region = region
        self.arrays = arrays
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
        self._groups: Dict[int, "array[int]"] = {}
        self._all_idx = range(0)
        #: The store's ``group_epoch`` the index was built at.
        self._epoch = -1

    # ------------------------------------------------------------------
    def _rebuild_groups(self) -> None:
        # The group *count* is re-read only here: the Locality
        # Optimizer's count is fixed after construction.
        n_groups = max(1, self.n_groups_fn())
        arr = self.arrays
        self._all_idx = range(len(arr))
        groups: Dict[int, "array[int]"] = {}
        group_col = arr.group
        for i in self._all_idx:
            g = group_col[i] % n_groups
            bucket = groups.get(g)
            if bucket is None:
                bucket = groups[g] = array("l")
            bucket.append(i)
        self._groups = groups
        self._epoch = arr.group_epoch

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
        arr = self.arrays
        if arr.group_epoch != self._epoch:
            self._rebuild_groups()
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
        running = arr.running
        cpu_load = arr.cpu_load
        mem_mb = arr.mem_mb
        threads = arr.threads
        cores = arr.cores
        memory_mb = arr.memory_mb
        views = arr.views
        # An isolation-denied call ends terminally in execute(); the
        # bound below must never pre-empt that.
        flow_ok = call.source_level <= call.spec.isolation_level
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
                order = [a, b]
                for _ in range(extra_probes):
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    extra = pool[r]
                    if extra not in order:
                        order.append(extra)
            # The speed-1 CPU bound (module docstring): the drawn rows,
            # among those with a view, that refuse the call even at full
            # JIT speed.  Each is refused with the one side effect a
            # refused execute() has.
            hopeless = []
            res = call.resources
            if res is not None and flow_ok:
                cpu_minstr = res[0]
                exec_s = res[2]
                for idx in order:
                    worker = views[idx]
                    if worker is not None:
                        cpu_s = cpu_minstr / worker.machine.core_mips
                        c1 = 1.0 if cpu_s >= exec_s else cpu_s / exec_s
                        if cpu_load[idx] + c1 > worker._cpu_budget:
                            hopeless.append(idx)
            if len(hopeless) == len(order):
                # The draws-only refusal: every drawn row refuses, so
                # their order cannot matter and nothing is scored.
                for idx in order:
                    views[idx].admission_rejections += 1
            else:
                if n > 1:
                    # Worker.load_score() inlined for both probes
                    # (identical arithmetic on the flat columns; no
                    # subclass overrides it).
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
                    if not sa <= sb:
                        order[0] = b
                        order[1] = a
                for idx in order:
                    if idx in hopeless:
                        views[idx].admission_rejections += 1
                        continue
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
    def free_threads(self) -> int:
        return self.arrays.free_threads()
