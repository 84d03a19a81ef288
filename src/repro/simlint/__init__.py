"""simlint: determinism & sim-safety static analysis for this repo.

The simulator's entire value rests on bit-identical reproducibility —
paired A/B ablations, replayable trace digests, sweep results that do
not depend on which worker process ran them.  That contract is easy to
break with ordinary Python: a module-level ``itertools.count`` survives
across back-to-back runs in one process (the PR 2 call-id bug), a
``time.time()`` smuggles wall-clock into a simulated world, iterating a
``set`` makes scheduling order depend on hash seeds.

``simlint`` encodes the contract as a small stdlib-``ast`` rule engine
(:mod:`repro.simlint.engine`) plus a curated ruleset
(:mod:`repro.simlint.rules`, eight per-module rules, SL001–SL008).
Protocol invariants that need whole-program flow (DurableQ leases,
one-shot event handles, metric merges) are checked on the running
system instead: :class:`repro.sim.simsan.LeaseGuard`, the kernel's
handle checks and ``MetricsRegistry.merge``.  Run it as::

    python -m repro lint                # lint src/repro, text output
    python -m repro lint --json         # machine-readable findings
    python -m repro lint path/ file.py  # lint specific trees/files
    python -m repro lint --baseline simlint_baseline.json

Suppress a deliberate violation on its line with a justification::

    t0 = time.perf_counter()  # simlint: disable=SL002 -- wall-clock bench

or for a whole file with ``# simlint: disable-file=SL003``.
"""

from .baseline import Baseline, apply_baseline
from .engine import Finding, LintContext, Rule, Severity, lint_paths, lint_source
from .rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintContext",
    "Rule",
    "Severity",
    "apply_baseline",
    "lint_paths",
    "lint_source",
    "rules_by_id",
]
