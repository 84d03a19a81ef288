"""Picklable run specifications and results for the sweep engine.

A :class:`RunSpec` is everything a worker process needs to rebuild one
simulation from scratch: scenario name, seed, workload shape, and
parameter overrides.  A :class:`RunResult` is the compact, serializable
product shipped back over the ``multiprocessing`` pipe: trace digest,
headline stats, and the run's completion-latency samples — never the
simulator or platform objects themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.rng import derive_seed

#: Named §1.2 ablations: CLI flag value -> ``PlatformParams`` overrides.
#: Each switches one technique off against the unablated baseline.
ABLATIONS: Dict[str, Dict[str, Any]] = {
    "time-shifting": {"time_shifting": False},
    "global-dispatch": {"global_dispatch": False},
    "locality-groups": {"locality_groups": False},
    "cooperative-jit": {"cooperative_jit": False},
    "aimd": {"aimd": False},
}


@dataclass(frozen=True)
class RunSpec:
    """One point of a sweep grid.  Frozen + tuple-valued → hashable,
    picklable, and safe to ship to a spawn-started worker."""

    index: int
    seed: int
    scenario: str = "dayrun"
    label: str = "baseline"
    horizon_s: float = 6 * 3600.0
    total_rate: float = 8.0
    n_functions: int = 60
    n_regions: int = 6
    #: ``PlatformParams`` field overrides as sorted (name, value) pairs
    #: (a dict is unhashable; the tuple keeps RunSpec frozen-friendly).
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def overrides_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)

    def scenario_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the scenario builder."""
        return {
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "total_rate": self.total_rate,
            "n_functions": self.n_functions,
            "n_regions": self.n_regions,
            "overrides": self.overrides_dict(),
        }


@dataclass
class RunResult:
    """Outcome of executing one :class:`RunSpec` (possibly a failure)."""

    index: int
    seed: int
    label: str
    ok: bool
    wall_s: float
    error: str = ""
    events_executed: int = 0
    n_traces: int = 0
    trace_digest: str = ""
    summary: Dict[str, float] = field(default_factory=dict)
    #: The run's ``latency.completion`` samples, pooled per label by
    #: :func:`~repro.sweep.aggregate.sweep_report`.
    latency_s: List[float] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "index": self.index, "seed": self.seed, "label": self.label,
            "ok": self.ok, "wall_s": round(self.wall_s, 3),
            "error": self.error, "events_executed": self.events_executed,
            "n_traces": self.n_traces, "trace_digest": self.trace_digest,
            "summary": self.summary,
        }


def seed_for_rep(master_seed: int, rep: int) -> int:
    """Per-repetition seed derived from the sweep's master seed.

    The derivation depends only on the repetition index — *not* on the
    variant label — so repetition ``i`` of every ablation variant runs
    the same workload realization and A/B comparisons stay paired.
    """
    return derive_seed(master_seed, f"sweep:rep{rep}")


def build_grid(n_reps: int, master_seed: int = 7,
               variants: Optional[Sequence[Tuple[str, Dict[str, Any]]]] = None,
               scenario: str = "dayrun",
               **scenario_kwargs: Any) -> List[RunSpec]:
    """Expand ``variants × repetitions`` into an ordered list of specs.

    ``variants`` is a sequence of ``(label, overrides)`` pairs; the
    default is a single unablated baseline.  Spec indices enumerate the
    grid in deterministic (variant-major, repetition-minor) order and
    double as the merge ordering key.
    """
    if n_reps <= 0:
        raise ValueError(f"n_reps must be positive, got {n_reps}")
    if variants is None:
        variants = [("baseline", {})]
    specs: List[RunSpec] = []
    for label, overrides in variants:
        for rep in range(n_reps):
            specs.append(RunSpec(
                index=len(specs),
                seed=seed_for_rep(master_seed, rep),
                scenario=scenario,
                label=label,
                overrides=tuple(sorted(overrides.items())),
                **scenario_kwargs))
    return specs
