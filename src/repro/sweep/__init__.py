"""Parallel sweep engine: multiprocess fan-out over seeds and ablations.

The paper's claims are fleet-shape claims; checking them properly means
running the same scenario across many seeds and configuration variants
and reporting confidence intervals, which is only practical when a grid
of simulations is cheap.  This package fans a grid of
``(scenario, seed, overrides)`` specs out across CPU cores and aggregates
the per-process results deterministically::

    from repro.sweep import build_grid, run_sweep, sweep_report

    specs = build_grid(n_reps=8, master_seed=7,
                       variants=[("baseline", {}),
                                 ("no time-shifting",
                                  {"time_shifting": False})],
                       horizon_s=2 * 3600.0, total_rate=4.0)
    results = run_sweep(specs, workers=4)
    report = sweep_report(results)

Per-run trace digests are bit-identical whatever ``workers`` is, so
parallelism is a pure wall-clock optimization, never a behavior change.
"""

from .aggregate import (
    aggregate_summaries,
    confidence_interval,
    sweep_report,
)
from .runner import execute_spec, run_sweep
from .spec import ABLATIONS, RunResult, RunSpec, build_grid, seed_for_rep

__all__ = [
    "ABLATIONS",
    "RunResult",
    "RunSpec",
    "aggregate_summaries",
    "build_grid",
    "confidence_interval",
    "execute_spec",
    "run_sweep",
    "seed_for_rep",
    "sweep_report",
]
