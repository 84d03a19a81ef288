"""Deterministic time attribution for simulation runs.

The speed benchmark says *how fast* a run is; this module says *where
the time goes*.  A :class:`ProfileRecorder` replaces the kernel's event
dispatch loop with an instrumented twin that attributes wall time to
``(component, event-type)`` pairs — e.g. ``("Scheduler", "tick")`` or
``("Worker", "execute.<lambda>")`` — tracking both *self* time (spent in
that frame alone) and *cumulative* time (frame plus everything it
called).  A curated set of hot component methods is wrapped for the
duration of a profiled run so the nesting below a top-level event
(scheduler tick → WorkerLB dispatch → Worker admission) is visible, not
just the event totals.

Determinism contract: profiling must never change *what* a run does.
The recorder only reads ``time.perf_counter`` around calls it forwards
unmodified — no RNG draws, no event reordering — so a profiled run's
trace digest is bit-identical to an unprofiled run's.  CI asserts this
on every push (`python -m repro profile --quick --expect-digest …`) and
``tests/test_profile.py`` locks it at unit level.

Wall-clock reads are allowed *here* because this module is harness code
that wraps the simulation from outside.  Everything that runs *under* the
simulated clock reads ``sim.now`` only; a wall-clock read there would
break the digest pins.

Usage::

    rec = ProfileRecorder()
    with rec.installed():
        run = build_dayrun(horizon_s=600.0, profiler=rec)
    print(rec.table())
    print(rec.collapsed())   # flamegraph.pl / speedscope folded stacks
"""

from __future__ import annotations

import gc
import importlib
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Key = Tuple[str, str]

#: Hot component methods wrapped during a profiled run, as
#: ``(module, class, methods)``.  Curated rather than exhaustive: these
#: are the frames that make an attribution table actionable (the
#: dispatch chain, the write path, the periodic controllers).  Wrapping
#: happens at the *class* level, so it must be installed before the
#: platform is built — components that capture bound methods at init
#: time (``sim.every(..., self.tick)``) bind whatever the class held at
#: that moment.
DEFAULT_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.core.scheduler", "Scheduler",
     ("tick", "_poll_durableqs", "_schedule_pass", "_drain_runq",
      "on_call_finished", "_extend_leases")),
    ("repro.core.workerlb", "WorkerLB", ("dispatch",)),
    ("repro.core.worker", "Worker", ("execute", "can_admit", "_complete")),
    ("repro.core.durableq", "DurableQ", ("poll", "enqueue", "ack", "nack")),
    ("repro.core.queuelb", "QueueLB", ("route",)),
    ("repro.core.submitter", "Submitter", ("submit", "_flush")),
    ("repro.core.platform", "XFaaS",
     ("submit", "_on_done", "_invoke_downstream")),
    ("repro.core.rim", "Rim", ("sample",)),
    ("repro.core.congestion", "CongestionController",
     ("adjust", "can_dispatch_state")),
    ("repro.core.ratelimiter", "CentralRateLimiter", ("try_acquire_quota",)),
    ("repro.workloads.generator", "ArrivalGenerator", ("_tick", "_fire")),
)


def event_key(callback: Callable[..., Any]) -> Key:
    """Derive the ``(component, event-type)`` pair for a callback.

    Bound methods attribute to their class; periodic-task firings
    attribute to the *wrapped* callback (a tick named ``PeriodicTask``
    would hide every controller behind one row); lambdas and closures
    attribute to their defining function via ``__qualname__``
    (``Worker.execute.<locals>.<lambda>`` → ``Worker, execute.<lambda>``).
    """
    target = getattr(callback, "__self__", None)
    if target is not None:
        if (type(target).__name__ == "PeriodicTask"
                and getattr(callback, "__name__", "") == "_fire"):
            inner = getattr(target, "_callback", None)
            if inner is not None and inner is not callback:
                return event_key(inner)
        return (type(target).__name__,
                getattr(callback, "__name__", "callback"))
    qualname = (getattr(callback, "__qualname__", None)
                or getattr(callback, "__name__", None) or "callback")
    parts = [p for p in qualname.split(".") if p != "<locals>"]
    if len(parts) == 1:
        return ("<module>", parts[0])
    return (parts[0], ".".join(parts[1:]))


class ProfileRecorder:
    """Attributes wall time to (component, event-type) frames.

    Frames nest: a wrapped method called from inside a timed event adds
    its elapsed time to the caller's *cumulative* total but is
    subtracted from the caller's *self* total.  Recursive frames add to
    cumulative time once per level (the usual folded-profiler caveat).
    """

    def __init__(self) -> None:
        #: key → [count, self_s, cum_s]
        self._stats: Dict[Key, List[float]] = {}
        #: frame path (outermost first) → accumulated self seconds, the
        #: folded-stack data flamegraph tools consume.
        self._folded: Dict[Tuple[Key, ...], float] = {}
        #: Active frames: [key, child_seconds] (innermost last).
        self._stack: List[List[Any]] = []
        self._installed: List[Tuple[type, str, Any]] = []
        self.events_profiled = 0
        self.total_s = 0.0

    # ------------------------------------------------------------------
    # Frame engine
    # ------------------------------------------------------------------
    def _call(self, key: Key, fn: Callable[..., Any],
              args: Tuple[Any, ...] = (),
              kwargs: Optional[Dict[str, Any]] = None) -> Any:
        stack = self._stack
        frame: List[Any] = [key, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            if kwargs is None:
                return fn(*args)
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            path = tuple(f[0] for f in stack)
            stack.pop()
            rec = self._stats.get(key)
            if rec is None:
                rec = self._stats[key] = [0, 0.0, 0.0]
            self_s = dt - frame[1]
            rec[0] += 1
            rec[1] += self_s
            rec[2] += dt
            self._folded[path] = self._folded.get(path, 0.0) + self_s
            if stack:
                stack[-1][1] += dt
            else:
                self.total_s += dt

    # ------------------------------------------------------------------
    # Kernel dispatch loop (instrumented twin of Simulator.run_until; the
    # kernel delegates here when a profiler is set).
    # ------------------------------------------------------------------
    def run_until(self, sim: Any, until: float) -> None:
        sim._stopped = False
        queue = sim._queue
        purge_head = queue._purge_head
        pop_head = queue._pop_head
        call = self._call
        executed = 0
        try:
            while not sim._stopped:
                head = purge_head()
                if head is None or head[0] > until:
                    break
                entry = pop_head()
                sim._now = entry[0]
                executed += 1
                cb = entry[2].callback
                call(event_key(cb), cb)
            if sim._now < until:
                sim._now = until
        finally:
            sim.events_executed += executed
            self.events_profiled += executed

    # ------------------------------------------------------------------
    # Component-method instrumentation
    # ------------------------------------------------------------------
    def install(self, targets=DEFAULT_TARGETS) -> None:
        """Wrap the curated hot methods at class level (reversible).

        Raises ``AttributeError`` when a target names no method, and
        wraps nothing then: a renamed method must fail the profile, not
        drop its rows from the table.
        """
        if self._installed:
            raise RuntimeError("recorder already installed")
        found = []
        for mod_name, cls_name, methods in targets:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for name in methods:
                fn = cls.__dict__.get(name)
                if not callable(fn):
                    raise AttributeError(
                        f"{mod_name}.{cls_name}.{name} is not a method")
                found.append((cls, cls_name, name, fn))
        for cls, cls_name, name, fn in found:
            setattr(cls, name, self._wrap(cls_name, name, fn))
            self._installed.append((cls, name, fn))

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._installed:
            cls, name, fn = self._installed.pop()
            setattr(cls, name, fn)

    @contextmanager
    def installed(self, targets=DEFAULT_TARGETS) -> Iterator["ProfileRecorder"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, comp: str, name: str,
              fn: Callable[..., Any]) -> Callable[..., Any]:
        key = (comp, name)
        call = self._call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(key, fn, args, kwargs if kwargs else None)

        wrapper.__name__ = name
        wrapper.__qualname__ = f"{comp}.{name}"
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Rows ranked by self time (descending), JSON-friendly."""
        rows = [{"component": k[0], "event": k[1], "count": int(v[0]),
                 "self_s": v[1], "cum_s": v[2]}
                for k, v in self._stats.items()]
        rows.sort(key=lambda r: (-r["self_s"], r["component"], r["event"]))
        return rows

    def to_json(self) -> Dict[str, Any]:
        return {"total_s": round(self.total_s, 6),
                "events_profiled": self.events_profiled,
                "entries": [{**r, "self_s": round(r["self_s"], 6),
                             "cum_s": round(r["cum_s"], 6)}
                            for r in self.entries()]}

    def table(self, top: Optional[int] = None) -> str:
        """The ranked (component, event-type) self/cumulative table."""
        rows = self.entries()
        if top is not None:
            rows = rows[:top]
        total = self.total_s or 1e-12
        header = (f"{'component':<22} {'event':<28} {'count':>9} "
                  f"{'self (s)':>9} {'cum (s)':>9} {'self %':>7} {'cum %':>7}")
        lines = [header, "-" * len(header)]
        for r in rows:
            lines.append(
                f"{r['component']:<22} {r['event']:<28} {r['count']:>9} "
                f"{r['self_s']:>9.3f} {r['cum_s']:>9.3f} "
                f"{100 * r['self_s'] / total:>6.1f}% "
                f"{100 * r['cum_s'] / total:>6.1f}%")
        lines.append(f"{'TOTAL':<22} {'(event dispatch)':<28} "
                     f"{self.events_profiled:>9} {self.total_s:>9.3f}")
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Folded stacks (``a;b;c <microseconds>``), one line per path.

        Feed to ``flamegraph.pl`` or paste into speedscope to render a
        flamegraph of simulated-component wall time.
        """
        lines = []
        for path, self_s in sorted(self._folded.items()):
            frames = ";".join(f"{comp}.{event}" for comp, event in path)
            lines.append(f"{frames} {max(int(self_s * 1e6), 1)}")
        return "\n".join(lines)


@contextmanager
def cyclic_garbage() -> Iterator[Dict[str, int]]:
    """Count, by type name, the cyclic garbage a ``with`` block leaves.

    The collector runs once on entry and then stays off for the block,
    so nothing the block leaves is freed early.  On exit a full
    collection under ``gc.DEBUG_SAVEALL`` parks what it finds
    unreachable, the yielded dict is filled with the counts, and the
    objects are freed.  An empty dict means refcounting alone freed
    everything, the contract under which :meth:`Simulator.run_until`
    pauses the collector.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    found: Dict[str, int] = {}
    try:
        yield found
        flags = gc.get_debug()
        start = len(gc.garbage)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
        finally:
            gc.set_debug(flags)
        found.update(sorted(Counter(
            type(obj).__name__ for obj in gc.garbage[start:]).items()))
        del gc.garbage[start:]
        gc.collect()
    finally:
        if was_enabled:
            gc.enable()


class AllocationRecorder:
    """Allocation attribution for simulation runs (``profile --alloc``).

    The time profiler says where the *seconds* go; this says where the
    *objects* come from.  It samples the heap with :mod:`tracemalloc`
    around a run and attributes live blocks and bytes to source files,
    so a layer that retains objects (the trace log's per-call tuples,
    say) shows up by file.

    Same determinism contract as :class:`ProfileRecorder`: tracemalloc
    only observes the allocator, so the traced run's digest is
    bit-identical to an untraced run's (CI smokes this).
    """

    def __init__(self) -> None:
        self.current_bytes = 0
        self.peak_bytes = 0
        self._stats: List[Tuple[str, int, int]] = []  # (file, blocks, bytes)

    @contextmanager
    def capturing(self, nframe: int = 1) -> Iterator["AllocationRecorder"]:
        """Trace allocations for the duration of the ``with`` block."""
        tracemalloc.start(nframe)
        try:
            yield self
        finally:
            snap = tracemalloc.take_snapshot()
            self.current_bytes, self.peak_bytes = (
                tracemalloc.get_traced_memory())
            tracemalloc.stop()
            stats = []
            for s in snap.statistics("filename"):
                frame = s.traceback[0]
                name = frame.filename
                # Shorten to the repo-relative path where possible so
                # tables are readable and stable across checkouts.
                for marker in ("/src/", "/lib/"):
                    cut = name.rfind(marker)
                    if cut != -1:
                        name = name[cut + len(marker):]
                        break
                stats.append((name, s.count, s.size))
            self._stats = stats

    # ------------------------------------------------------------------
    def entries(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Per-file live-allocation rows, largest byte count first."""
        rows = [{"file": f, "blocks": c, "kb": b / 1024.0}
                for f, c, b in self._stats]
        rows.sort(key=lambda r: (-r["kb"], r["file"]))
        return rows[:top] if top is not None else rows

    def to_json(self, top: Optional[int] = None) -> Dict[str, Any]:
        return {
            "peak_kb": round(self.peak_bytes / 1024.0, 1),
            "end_kb": round(self.current_bytes / 1024.0, 1),
            "entries": [{**r, "kb": round(r["kb"], 1)}
                        for r in self.entries(top)],
        }

    def table(self, top: Optional[int] = None) -> str:
        rows = self.entries(top)
        total_kb = sum(r["kb"] for r in rows) or 1e-12
        header = f"{'file':<52} {'blocks':>9} {'kb':>10} {'kb %':>7}"
        lines = [header, "-" * len(header)]
        for r in rows:
            lines.append(f"{r['file']:<52} {r['blocks']:>9} "
                         f"{r['kb']:>10.1f} "
                         f"{100 * r['kb'] / total_kb:>6.1f}%")
        lines.append(f"{'PEAK TRACED':<52} {'':>9} "
                     f"{self.peak_bytes / 1024.0:>10.1f}")
        lines.append(f"{'LIVE AT END':<52} {'':>9} "
                     f"{self.current_bytes / 1024.0:>10.1f}")
        return "\n".join(lines)
