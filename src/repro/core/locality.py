"""Locality Optimizer: partition functions and workers into groups (§4.5.2).

Memory, not CPU, is what breaks the universal-worker ideal: keeping every
function's JIT code in every worker's memory is infeasible, and
co-locating several memory-hungry calls can OOM a worker.  The Locality
Optimizer therefore partitions *functions* into non-overlapping locality
groups — spreading memory-hungry functions across groups — and maps each
function group onto a group of *workers*, so each worker only ever sees
a stable subset of functions (Fig 9: ~61 distinct functions per worker
per hour at P50, out of tens of thousands).

Ephemeral, programmatically generated functions (the Morphing Framework)
share one profile, so they are assigned round-robin (§4.5.2).

The optimizer runs off the critical path: it periodically publishes the
function→group map through the config system; WorkerLBs consume the
cached copy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.kernel import PeriodicTask, Simulator
from ..workloads.spec import FunctionSpec
from .config import ConfigStore
from .workerarrays import WorkerArrays

#: Re-run the partition this often (profiles drift, §4.5.2).
REASSIGN_INTERVAL_S = 1800.0


@dataclass(frozen=True)
class LocalityParams:
    """Group count and rebalancing cadence (§4.5.2)."""

    n_groups: int = 4
    #: Rebalance workers between groups this often (load drift).
    rebalance_interval_s: float = 600.0
    #: Move a worker when a group's load exceeds another's by this factor.
    rebalance_ratio: float = 1.3

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError(f"n_groups must be >= 1, got {self.n_groups}")


class LocalityOptimizer:
    """Central controller computing locality-group assignments.

    ``enabled=False`` reproduces the §5.2 A/B control arm: one group,
    every worker can receive every function.
    """

    CONFIG_KEY = "locality/assignment"

    def __init__(self, sim: Simulator, config: ConfigStore,
                 params: LocalityParams = LocalityParams(),
                 enabled: bool = True,
                 namespace: str = "default") -> None:
        self.sim = sim
        self.config = config
        self.params = params
        self.enabled = enabled
        self.namespace = namespace
        self._specs: Dict[str, FunctionSpec] = {}
        #: Registered workers as (store, rows) blocks, in registration
        #: order; rebalancing reads their columns, never their views.
        self._blocks: List[Tuple[WorkerArrays, range]] = []
        self._n_workers = 0
        self._assignment: Dict[str, int] = {}
        self._rr_counter = 0
        self.reassign_count = 0
        self.worker_moves = 0
        #: Armed loops, or None when not started.
        self._tasks: Optional[List[PeriodicTask]] = None

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return self.params.n_groups if self.enabled else 1

    def register_function(self, spec: FunctionSpec) -> None:
        if spec.name in self._specs:
            return
        self._specs[spec.name] = spec
        self._assignment[spec.name] = self._assign_one(spec)

    def register_rows(self, store: WorkerArrays, rows: range) -> None:
        """Register the workers of ``store``'s ``rows`` (a step-1 range).

        Workers are spread over groups round-robin in registration
        order.
        """
        n = self.n_groups
        base = self._n_workers
        cycle = array("l", [(base + k) % n for k in range(n)])
        store.set_group(slice(rows.start, rows.stop),
                        (cycle * -(-len(rows) // n))[:len(rows)])
        self._blocks.append((store, rows))
        self._n_workers += len(rows)

    def group_of(self, function_name: str) -> int:
        if not self.enabled:
            return 0
        return self._assignment.get(function_name, 0)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._tasks is not None:
            raise RuntimeError("locality optimizer already started")
        self._tasks = []
        if not self.enabled:
            return
        p = self.params
        self._tasks.append(self.sim.every(
            REASSIGN_INTERVAL_S, self.reassign,
            start=self.sim.now + REASSIGN_INTERVAL_S))
        self._tasks.append(self.sim.every(
            p.rebalance_interval_s, self.rebalance_workers,
            start=self.sim.now + p.rebalance_interval_s))

    def stop(self) -> None:
        for t in self._tasks or ():
            t.cancel()
        self._tasks = None

    # ------------------------------------------------------------------
    # Function → group assignment
    # ------------------------------------------------------------------
    def _assign_one(self, spec: FunctionSpec) -> int:
        if not self.enabled:
            return 0
        if spec.ephemeral:
            # Morphing-style ephemeral functions: round-robin (§4.5.2).
            group = self._rr_counter % self.n_groups
            self._rr_counter += 1
            return group
        # Greedy balance on expected memory: heavy functions land in the
        # currently lightest group, spreading memory hogs apart.
        loads = self._group_memory_loads()
        return min(range(self.n_groups), key=lambda g: (loads[g], g))

    def reassign(self) -> None:
        """Full re-partition from current profiles (§4.5.2 dynamic path)."""
        if not self.enabled:
            return
        self.reassign_count += 1
        ordered = sorted(
            (s for s in self._specs.values() if not s.ephemeral),
            key=lambda s: -self._expected_memory(s))
        loads = [0.0] * self.n_groups
        new_assignment: Dict[str, int] = {}
        for spec in ordered:
            group = min(range(self.n_groups), key=lambda g: (loads[g], g))
            new_assignment[spec.name] = group
            loads[group] += self._expected_memory(spec)
        rr = 0
        for spec in self._specs.values():
            if spec.ephemeral:
                new_assignment[spec.name] = rr % self.n_groups
                rr += 1
        self._assignment = new_assignment
        self.config.publish(self.CONFIG_KEY,
                            {"n_groups": self.n_groups,
                             "version": self.reassign_count})

    def _group_memory_loads(self) -> List[float]:
        loads = [0.0] * self.n_groups
        for name, group in self._assignment.items():
            spec = self._specs.get(name)
            if spec is not None and not spec.ephemeral:
                loads[group] += self._expected_memory(spec)
        return loads

    def _expected_memory(self, spec: FunctionSpec) -> float:
        # Median of the profile ≈ cheap stand-in for production profiling.
        return spec.profile.memory_mb.median

    # ------------------------------------------------------------------
    # Worker ↔ group rebalancing (§4.5.2: move workers between groups
    # when one group's call mix surges)
    # ------------------------------------------------------------------
    def rebalance_workers(self) -> None:
        if not self.enabled or not self._n_workers:
            return
        n = self.n_groups
        # Each worker's load score, read from its columns in
        # registration order, and each group's members as registration
        # positions.  Rebalancing runs every ~10 min and needs every
        # worker's group + load pair to pick a mover.
        scores: List[float] = []
        groups: Dict[int, List[int]] = {}
        for store, rows in self._blocks:
            load_score, group = store.load_score, store.group
            for i in rows:
                groups.setdefault(group[i] % n, []).append(len(scores))
                scores.append(load_score(i))
        loads = {}
        for g in range(n):
            members = groups.get(g, [])
            loads[g] = (sum(scores[p] for p in members) / len(members)
                        if members else 0.0)
        hottest = max(loads, key=lambda g: loads[g])
        coldest = min(loads, key=lambda g: loads[g])
        if loads[coldest] <= 0:
            ratio = float("inf") if loads[hottest] > 0 else 1.0
        else:
            ratio = loads[hottest] / loads[coldest]
        donors = groups.get(coldest, [])
        if ratio >= self.params.rebalance_ratio and len(donors) > 1:
            # Move the least-loaded worker of the cold group (the first
            # one, on ties) to the hot one.
            mover = min(donors, key=scores.__getitem__)
            for store, rows in self._blocks:
                if mover < len(rows):
                    store.set_group(rows[mover], hottest)
                    break
                mover -= len(rows)
            self.worker_moves += 1
