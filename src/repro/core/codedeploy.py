"""Proactive code distribution and staged rollout (§4.5, §4.5.1).

XFaaS bundles all new/changed function code every three hours and pushes
it to every worker's local SSD through peer-to-peer distribution, so any
worker can load any function without fetching code at call time (a key
piece of the universal-worker approximation).

Workers adopt a new bundle in three phases:

1. a small canary set runs the new code (catches obvious bugs);
2. 2% of workers run it, and designated *seeder* workers collect the
   profiling data JIT compilation needs;
3. seeders' profiling data is distributed to every worker in their
   locality group, letting all workers pre-compile hot functions before
   any call for the new code arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..sim.kernel import Simulator
from ..sim.sampler import SamplerHub

#: How long a phase-2 seeder worker profiles before its data is
#: distributed to its locality group.
SEEDER_PROFILE_S = 600.0


@dataclass(frozen=True)
class RolloutParams:
    """Staged-rollout timing (§4.5.1)."""

    push_interval_s: float = 3 * 3600.0
    canary_workers: int = 2
    phase2_fraction: float = 0.02
    phase1_duration_s: float = 300.0
    phase2_duration_s: float = 900.0
    #: P2P distribution delay of a code bundle to the whole fleet.
    distribution_delay_s: float = 120.0

    def __post_init__(self) -> None:
        if self.push_interval_s <= 0:
            raise ValueError("push_interval_s must be positive")
        if not 0 < self.phase2_fraction <= 1:
            raise ValueError("phase2_fraction must be in (0, 1]")


@dataclass
class CodeVersion:
    """One three-hourly code bundle."""

    version: int
    released_at: float
    size_mb: float = 500.0


class CodeDeployer:
    """Drives periodic bundle pushes and the three-phase rollout.

    The deployer is generic over workers: it needs each worker to expose
    ``adopt_version(version, now, with_profile_data)`` and a
    ``locality_group`` attribute (seeder data is distributed per group).
    Workers register as blocks, such as a range of a store's lazily
    built views; a push takes every registered worker, so it builds
    every view.
    """

    def __init__(self, sim: Simulator, params: RolloutParams = RolloutParams(),
                 cooperative_jit: bool = True,
                 timers: Optional[SamplerHub] = None) -> None:
        self.sim = sim
        self._timers = timers
        self.params = params
        self.cooperative_jit = cooperative_jit
        #: Registered worker blocks, in registration order.
        self._blocks: List[Sequence] = []
        self.current_version = CodeVersion(version=1, released_at=0.0)
        self.rollouts_completed = 0
        self._task = None

    def register_workers(self, workers: Sequence) -> None:
        """Register a block of workers, read only when a push starts."""
        self._blocks.append(workers)

    def start(self) -> None:
        """Begin periodic pushes (first push after one interval)."""
        if self._task is not None:
            raise RuntimeError("deployer already started")
        timers = self._timers if self._timers is not None else self.sim
        self._task = timers.every(
            self.params.push_interval_s, self.push_new_version,
            start=self.sim.now + self.params.push_interval_s)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # ------------------------------------------------------------------
    def push_new_version(self) -> None:
        """Release a new bundle and run the three-phase rollout."""
        now = self.sim.now
        version = CodeVersion(version=self.current_version.version + 1,
                              released_at=now)
        self.current_version = version
        rng = self.sim.rng.stream("codedeploy")
        workers = [w for block in self._blocks for w in block]
        if not workers:
            return
        rng.shuffle(workers)
        p = self.params

        n_canary = min(p.canary_workers, len(workers))
        canaries = workers[:n_canary]
        n_phase2 = max(1, int(len(workers) * p.phase2_fraction))
        phase2 = workers[n_canary:n_canary + n_phase2]
        rest = workers[n_canary + n_phase2:]

        t_code_ready = now + p.distribution_delay_s
        t_phase2 = t_code_ready + p.phase1_duration_s
        t_phase3 = t_phase2 + p.phase2_duration_s

        # Phase 1: canaries adopt the new code unseeded (they generate
        # the first profiling signal and catch bugs).
        for w in canaries:
            self.sim.call_at(t_code_ready, _adopter(w, version, False))
        # Phase 2: 2% adopt; they act as seeders, profiling the new code.
        for w in phase2:
            self.sim.call_at(t_phase2, _adopter(w, version, False))
        # Phase 3: everyone else adopts; with cooperative JIT they start
        # *with* the seeders' profiling data and pre-compile immediately.
        seeded = self.cooperative_jit
        for w in rest:
            self.sim.call_at(t_phase3, _adopter(w, version, seeded))
        # Seeder data also reaches the phase-1/2 workers, shortening any
        # ramp they still have.
        if self.cooperative_jit:
            t_profile = t_phase2 + SEEDER_PROFILE_S
            for w in canaries + phase2:
                self.sim.call_at(t_profile, _profile_receiver(w))
        self.sim.call_at(t_phase3, self._count_rollout)

    def _count_rollout(self) -> None:
        self.rollouts_completed += 1


def _adopter(worker, version: CodeVersion, seeded: bool) -> Callable[[], None]:
    def adopt() -> None:
        worker.adopt_version(version, seeded)
    return adopt


def _profile_receiver(worker) -> Callable[[], None]:
    def receive() -> None:
        worker.receive_profile_data()
    return receive
