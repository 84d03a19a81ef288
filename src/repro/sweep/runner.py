"""Multiprocess fan-out: execute a grid of RunSpecs across CPU cores.

Design constraints, in order:

* **Determinism** — a run's result depends only on its spec, never on
  which process executed it or in what order.  Results are returned
  sorted by spec index, and per-run trace digests are bit-identical
  between ``workers=1`` and ``workers=N``.
* **Spawn safety** — the worker entrypoint is a module-level function
  taking one picklable argument, so it works under the ``spawn`` start
  method (the only one available everywhere, and the one that catches
  pickling bugs early).  ``fork`` is still selectable for speed on
  POSIX via ``mp_context="fork"``.
* **Graceful degradation** — an exception inside a run is caught in the
  worker and reported as a failed :class:`RunResult`; a worker process
  dying outright breaks the pool, and every spec without a result yet
  becomes a failed result.  The sweep always returns one result per
  spec, and returns.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import List, Sequence

from ..scenarios import SCENARIOS, summarize_run
from .spec import RunResult, RunSpec


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one simulation from scratch and return its compact result.

    This is the worker entrypoint; it must stay importable as
    ``repro.sweep.runner.execute_spec`` and must only raise for
    interpreter-level failures — scenario errors become ``ok=False``
    results so one bad grid point cannot kill a sweep.
    """
    t0 = time.perf_counter()
    try:
        build = SCENARIOS.get(spec.scenario)
        if build is None:
            raise KeyError(
                f"unknown scenario {spec.scenario!r} "
                f"(have {sorted(SCENARIOS)})")
        run = build(**spec.scenario_kwargs())
        platform = run.platform
        return RunResult(
            index=spec.index, seed=spec.seed, label=spec.label, ok=True,
            wall_s=time.perf_counter() - t0,
            events_executed=run.sim.events_executed,
            n_traces=len(platform.traces),
            trace_digest=platform.traces.digest(),
            summary=summarize_run(run),
            latency_s=platform.metrics.distribution(
                "latency.completion").snapshot()["samples"])
    except Exception:
        return RunResult(
            index=spec.index, seed=spec.seed, label=spec.label, ok=False,
            wall_s=time.perf_counter() - t0,
            error=traceback.format_exc(limit=8))


def run_sweep(specs: Sequence[RunSpec], workers: int = 1,
              mp_context: str = "spawn") -> List[RunResult]:
    """Execute every spec and return results ordered by spec index.

    ``workers <= 1`` runs serially in-process (no pool, no pickling) —
    the determinism baseline.  Otherwise a process pool of the
    ``mp_context`` start method runs one future per spec, so long runs
    load-balance instead of queueing behind one worker.  When a pool
    process dies, the pool breaks and fails every unfinished future
    (``BrokenProcessPool``); those specs become failed results.
    """
    specs = list(specs)
    if len({s.index for s in specs}) != len(specs):
        raise ValueError("spec indices must be unique")
    if workers <= 1 or len(specs) <= 1:
        results = [execute_spec(spec) for spec in specs]
        return sorted(results, key=lambda r: r.index)

    ctx = multiprocessing.get_context(mp_context)
    workers = min(workers, len(specs))
    results: List[RunResult] = []
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [pool.submit(execute_spec, spec) for spec in specs]
        for spec, future in zip(specs, futures):
            try:
                results.append(future.result())
            except Exception as exc:  # broken pool / unpicklable result
                results.append(_worker_loss(spec, repr(exc)))
    return sorted(results, key=lambda r: r.index)


def _worker_loss(spec: RunSpec, detail: str) -> RunResult:
    return RunResult(index=spec.index, seed=spec.seed, label=spec.label,
                     ok=False, wall_s=0.0,
                     error=f"worker failure: {detail}")
