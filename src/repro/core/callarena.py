"""Struct-of-arrays storage for call lifecycle records.

A :class:`CallArena` holds the hot numeric/state fields of every
in-flight :class:`~repro.core.call.FunctionCall` in flat ``array``
columns, mirroring the worker fleet's ``WorkerArrays`` (PR 5): one
C-typed column per field instead of one boxed Python object per call.
``FunctionCall`` itself is a thin slot view over one arena row.

Why this exists: a day-long run creates hundreds of thousands of call
records.  As boxed dataclasses they dominate both the allocation count
(``repro profile --alloc``) and the cyclic-GC scan set; as arena rows
they cost a handful of machine words each, and — because terminalized
calls release their row back to a freelist — the steady-state footprint
is O(in-flight), not O(total submitted).

Recycling is deterministic: freed slots are reused in FIFO release
order, so a run's slot-assignment sequence depends only on its event
order (which the trace digest already pins).  A per-slot **generation**
counter guards stale views: releasing a slot bumps its generation, and
any later access through a view minted for the old occupant raises
:class:`StaleCallError` instead of silently reading the new occupant's
fields.

Rows are **pinned** by default — a pinned row is never recycled, so
calls handed to external callers (tests, baselines, the public
``XFaaS.submit``) keep working forever.  Only the bulk arrival path
(``XFaaS.submit_stream``) allocates unpinned rows, which is where the
volume is.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Any, Dict, List, Optional

#: Column sentinel for "None" in optional float columns.  NaN never
#: arises as a real timestamp, and ``v != v`` is the cheapest test.
NAN = float("nan")

#: Column sentinel for "None" in interned-string index columns.
NO_REGION = -1

#: Column sentinel for "no outcome yet" in the outcome-code column.
NO_OUTCOME = -1


class StaleCallError(RuntimeError):
    """A ``FunctionCall`` view outlived its arena slot.

    Raised when a view is dereferenced after its call terminalized and
    the slot was recycled (the slot's generation no longer matches the
    view's).  This is always a lifecycle bug in the caller: call records
    must not be retained past their terminal transition (simlint SL016).
    """


class CallArena:
    """Flat columnar store + freelist for call lifecycle records.

    Columns (parallel, indexed by slot):

    ``'d'`` float64 — ``submit_time``, ``start_time``, ``dispatch_time``,
    ``finish_time`` (NaN = unset), ``args_size_kb``.

    ``'l'`` int — ``attempts``, ``spec_idx``, ``generation``.

    ``'l'`` int (interned-region index, -1 = None) —
    ``region_submitted``, ``durableq_region``, ``scheduler_region``.

    ``'b'`` int8 — ``state`` (CallState code), ``outcome`` (CallOutcome
    code, -1 = None), ``args_spilled``, ``pinned``.

    object — ``worker_name`` (worker names are already shared strings).

    Specs and region names are interned: columns store small ints, and
    ``specs``/``regions`` map them back.  Floats round-trip through the
    ``'d'`` columns bit-identically (C doubles *are* Python floats).
    """

    __slots__ = (
        "submit_time", "start_time", "dispatch_time", "finish_time",
        "args_size_kb", "attempts", "spec_idx", "generation",
        "region_submitted", "durableq_region", "scheduler_region",
        "state", "outcome", "args_spilled", "pinned", "worker_name",
        "specs", "regions", "_spec_idx", "_region_idx", "_free",
        "_size", "allocated_total", "released_total",
    )

    def __init__(self) -> None:
        self.submit_time = array("d")
        self.start_time = array("d")
        self.dispatch_time = array("d")
        self.finish_time = array("d")
        self.args_size_kb = array("d")
        self.attempts = array("l")
        self.spec_idx = array("l")
        self.generation = array("l")
        self.region_submitted = array("l")
        self.durableq_region = array("l")
        self.scheduler_region = array("l")
        self.state = array("b")
        self.outcome = array("b")
        self.args_spilled = array("b")
        self.pinned = array("b")
        self.worker_name: List[Optional[str]] = []
        #: Interning tables: column ints -> objects and back.
        self.specs: List[Any] = []
        self.regions: List[str] = []
        self._spec_idx: Dict[str, int] = {}
        self._region_idx: Dict[str, int] = {}
        #: FIFO freelist of released slots — FIFO makes slot reuse order
        #: a pure function of release order, which the tests pin.
        self._free: deque = deque()
        self._size = 0
        self.allocated_total = 0
        self.released_total = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern_spec(self, spec: Any) -> int:
        """Return the column code for ``spec`` (interned by name)."""
        idx = self._spec_idx.get(spec.name)
        if idx is None:
            idx = len(self.specs)
            self.specs.append(spec)
            self._spec_idx[spec.name] = idx
        return idx

    def intern_region(self, region: str) -> int:
        """Return the column code for ``region``."""
        idx = self._region_idx.get(region)
        if idx is None:
            idx = len(self.regions)
            self.regions.append(region)
            self._region_idx[region] = idx
        return idx

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def allocate(self, spec_idx: int, submit_time: float, start_time: float,
                 region_idx: int, args_size_kb: float, state_code: int,
                 attempts: int, pinned: bool) -> int:
        """Claim a slot (recycled FIFO, else fresh) and reset its columns.

        Every column is (re)initialized so a recycled slot is
        indistinguishable from a fresh one; the generation counter is
        the only field that survives release (releases bump it, which
        is what invalidates stale views).
        """
        free = self._free
        self.allocated_total += 1
        if free:
            i = free.popleft()
            self.submit_time[i] = submit_time
            self.start_time[i] = start_time
            self.dispatch_time[i] = NAN
            self.finish_time[i] = NAN
            self.args_size_kb[i] = args_size_kb
            self.attempts[i] = attempts
            self.spec_idx[i] = spec_idx
            self.region_submitted[i] = region_idx
            self.durableq_region[i] = NO_REGION
            self.scheduler_region[i] = NO_REGION
            self.state[i] = state_code
            self.outcome[i] = NO_OUTCOME
            self.args_spilled[i] = 0
            self.pinned[i] = 1 if pinned else 0
            self.worker_name[i] = None
            return i
        i = self._size
        self._size = i + 1
        self.submit_time.append(submit_time)
        self.start_time.append(start_time)
        self.dispatch_time.append(NAN)
        self.finish_time.append(NAN)
        self.args_size_kb.append(args_size_kb)
        self.attempts.append(attempts)
        self.spec_idx.append(spec_idx)
        self.generation.append(0)
        self.region_submitted.append(region_idx)
        self.durableq_region.append(NO_REGION)
        self.scheduler_region.append(NO_REGION)
        self.state.append(state_code)
        self.outcome.append(NO_OUTCOME)
        self.args_spilled.append(0)
        self.pinned.append(1 if pinned else 0)
        self.worker_name.append(None)
        return i

    def release(self, slot: int, generation: int) -> bool:
        """Return ``slot`` to the freelist; no-op (False) when pinned.

        ``generation`` must match the slot's current generation — a
        mismatch means the slot was already released (a double-release
        bug in the caller) and raises :class:`StaleCallError`.
        """
        if self.pinned[slot]:
            return False
        if self.generation[slot] != generation:
            raise StaleCallError(
                f"double release of arena slot {slot} "
                f"(generation {generation} already retired)")
        self.generation[slot] = generation + 1
        self.worker_name[slot] = None   # drop the only object reference
        self._free.append(slot)
        self.released_total += 1
        return True

    def pin(self, slot: int) -> None:
        """Exempt ``slot`` from recycling (release becomes a no-op)."""
        self.pinned[slot] = 1

    # ------------------------------------------------------------------
    # Introspection (tests, benchmarks, --alloc reporting)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of rows ever grown (the high-water mark)."""
        return self._size

    def live_count(self) -> int:
        """Rows currently occupied (allocated and not yet released)."""
        return self._size - len(self._free)

    def free_count(self) -> int:
        return len(self._free)
