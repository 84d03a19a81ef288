"""Call-trace records: capture, summarize, save/load as CSV.

Benchmarks capture per-call traces so the analysis layer can rebuild the
paper's series (received vs executed, latency SLOs, deferral delay)
without re-running the simulation.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, List, Tuple

@dataclass(frozen=True)
class CallTrace:
    """Lifecycle timestamps and outcome of one function call."""

    call_id: int
    function: str
    trigger: str
    criticality: int
    quota_type: str
    submit_time: float
    start_time_requested: float
    dispatch_time: float
    finish_time: float
    region_submitted: str
    region_executed: str
    worker: str
    outcome: str            # "ok", "error", "throttled", ...
    cpu_minstr: float
    memory_mb: float
    exec_time_s: float
    attempts: int = 1

    @property
    def queueing_delay(self) -> float:
        """Time from eligible-to-run to dispatch (time-shift shows here)."""
        eligible = max(self.submit_time, self.start_time_requested)
        return max(0.0, self.dispatch_time - eligible)

    @property
    def completion_latency(self) -> float:
        """Submit → finish latency."""
        return self.finish_time - self.submit_time

    @property
    def cross_region(self) -> bool:
        return self.region_submitted != self.region_executed


def snapshot_call(call: Any, outcome_name: str) -> Tuple[Any, ...]:
    """The :class:`CallTrace` constructor tuple for a finished call.

    Duck-typed over :class:`repro.core.call.FunctionCall` (this module
    must not import ``repro.core``): any object with the call lifecycle
    attributes works.
    """
    resources = call.resources or (0.0, 0.0, 0.0)
    spec = call.spec
    dispatch = call.dispatch_time
    finish = call.finish_time
    return (call.call_id, call.function_name, spec.trigger.value,
            call.criticality, spec.quota_type.value, call.submit_time,
            call.start_time,
            -1.0 if dispatch is None else dispatch,
            -1.0 if finish is None else finish,
            call.region_submitted, call.scheduler_region or "",
            call.worker_name or "", outcome_name,
            resources[0], resources[1], resources[2], call.attempts + 1)


class TraceLog:
    """An append-only collection of :class:`CallTrace` with CSV round-trip.

    The write path is two-speed: :meth:`add` appends a pre-built
    :class:`CallTrace`, while :meth:`add_call` (the platform's per-call
    path) snapshots the call's fields into a plain constructor tuple
    and defers the 17-field dataclass construction until the log is
    first *read*.  Snapshotting at add time (rather than retaining the
    call object) lets the platform drop the call as soon as it
    terminalizes.  ``digest()`` is the regression test that the
    deferred construction yields byte-identical traces.
    """

    def __init__(self) -> None:
        self._traces: List[CallTrace] = []
        #: Deferred CallTrace constructor tuples not yet built.
        self._pending: List[Tuple[Any, ...]] = []

    def __len__(self) -> int:
        return len(self._traces) + len(self._pending)

    def __iter__(self):
        self._materialize()
        return iter(self._traces)

    def add(self, trace: CallTrace) -> None:
        if self._pending:
            self._materialize()
        self._traces.append(trace)

    def add_call(self, call: Any, outcome_name: str) -> None:
        """Record a finished call, snapshotting its fields immediately."""
        self._pending.append(snapshot_call(call, outcome_name))

    def _materialize(self) -> None:
        if self._pending:
            self._traces.extend(CallTrace(*t) for t in self._pending)
            self._pending.clear()

    def completed(self) -> List[CallTrace]:
        self._materialize()
        return [t for t in self._traces if t.outcome == "ok"]

    def for_function(self, function: str) -> List[CallTrace]:
        self._materialize()
        return [t for t in self._traces if t.function == function]

    def digest(self) -> str:
        """SHA-256 over every call's lifecycle tuple, in arrival order.

        Bit-identical digests mean behaviorally identical runs; xbench
        and the sweep benchmark compare them across optimizations and
        across process boundaries.  Changing the field tuple would
        invalidate every digest pinned in the tests and in
        ``benchmarks/xbench/run.py``.
        """
        self._materialize()
        h = hashlib.sha256()
        for t in self._traces:
            h.update(repr((t.call_id, t.function, t.submit_time,
                           t.start_time_requested, t.dispatch_time,
                           t.finish_time, t.region_submitted,
                           t.region_executed, t.worker, t.outcome,
                           t.cpu_minstr, t.memory_mb, t.exec_time_s,
                           t.attempts)).encode())
        return h.hexdigest()

    def save_csv(self, path: Path) -> None:
        self._materialize()
        path = Path(path)
        names = [f.name for f in fields(CallTrace)]
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for t in self._traces:
                writer.writerow([getattr(t, n) for n in names])

    @classmethod
    def load_csv(cls, path: Path) -> "TraceLog":
        log = cls()
        path = Path(path)
        float_fields = {"submit_time", "start_time_requested", "dispatch_time",
                        "finish_time", "cpu_minstr", "memory_mb", "exec_time_s"}
        int_fields = {"call_id", "criticality", "attempts"}
        with path.open() as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                kwargs = {}
                for key, value in row.items():
                    if key in float_fields:
                        kwargs[key] = float(value)
                    elif key in int_fields:
                        kwargs[key] = int(value)
                    else:
                        kwargs[key] = value
                log.add(CallTrace(**kwargs))
        return log
