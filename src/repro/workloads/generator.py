"""Workload population and arrival generation.

Builds a population of :class:`FunctionSpec` matching the paper's
published mix (Table 1 category shares, Table 3 resource shapes, §6 team
skew), assigns each function an arrival rate and a rate *shape* (diurnal
with the Figure 2 midnight spike, flat, or Figure 4-style spikes), and
drives submissions into a platform via a tick-based non-homogeneous
Poisson process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..sim.kernel import Simulator
from ..sim.rng import RngStream
from .categories import CALL_SHARE, split_functions
from .distributions import profile_for
from .diurnal import DiurnalRate
from .spec import Criticality, FunctionSpec, QuotaType, RetryPolicy, TriggerType
from .spikes import SpikeTrain

DAY_S = 86_400.0

#: Quota = mean CPU demand × headroom, for every function and for a
#: re-shaped spike; >1 leaves slack so steady traffic is not throttled,
#: while spikes above headroom are.
QUOTA_HEADROOM = 1.5
#: Teams a population's functions are spread over (mild Zipf).
N_TEAMS = 25


class RateShape(Protocol):
    """Anything exposing ``rate(t) -> calls/s``."""

    def rate(self, t: float) -> float: ...


@dataclass
class FunctionLoad:
    """One function's arrival model: mean rate × normalized shape."""

    spec: FunctionSpec
    mean_rate: float
    shape: RateShape
    shape_mean: float
    #: Fraction of submissions that carry a future execution start time
    #: (§4.6: callers spreading load predictably).
    future_start_fraction: float = 0.0
    future_start_horizon_s: float = 4 * 3600.0

    def rate(self, t: float) -> float:
        if self.shape_mean <= 0:
            return 0.0
        return self.mean_rate * self.shape.rate(t) / self.shape_mean


@dataclass
class Population:
    """A set of function loads plus lookup helpers."""

    loads: List[FunctionLoad]

    @property
    def specs(self) -> List[FunctionSpec]:
        return [l.spec for l in self.loads]

    def by_name(self, name: str) -> FunctionLoad:
        for l in self.loads:
            if l.spec.name == name:
                return l
        raise KeyError(f"unknown function {name!r}")

    def total_mean_rate(self) -> float:
        return sum(l.mean_rate for l in self.loads)


# Criticality mix: most functions are NORMAL; a small critical core.
_CRITICALITY_WEIGHTS: Sequence[Tuple[Criticality, float]] = (
    (Criticality.LOW, 0.20),
    (Criticality.NORMAL, 0.55),
    (Criticality.HIGH, 0.20),
    (Criticality.CRITICAL, 0.05),
)

# Deadline choices per trigger (seconds): queue-triggered spans seconds
# to 24 h (§2.4); event-triggered skews tight (Falco-style SLOs).
_DEADLINES: Dict[TriggerType, Sequence[Tuple[float, float]]] = {
    TriggerType.QUEUE: ((60.0, 0.3), (900.0, 0.3), (3600.0, 0.2),
                        (6 * 3600.0, 0.1), (DAY_S, 0.1)),
    TriggerType.EVENT: ((15.0, 0.4), (60.0, 0.4), (300.0, 0.2)),
    TriggerType.TIMER: ((300.0, 0.3), (3600.0, 0.4), (DAY_S, 0.3)),
}


def _zipf_shares(n: int, s: float, rng: RngStream) -> List[float]:
    """Zipf weights over n items with randomized rank assignment."""
    raw = [1.0 / (k ** s) for k in range(1, n + 1)]
    rng.shuffle(raw)
    total = sum(raw)
    return [w / total for w in raw]


def build_population(n_functions: int = 120,
                     total_rate: float = 200.0,
                     opportunistic_fraction: float = 0.35,
                     diurnal: Optional[DiurnalRate] = None,
                     core_mips: float = 4000.0) -> Population:
    """Build a Table 1/Table 3-shaped population.

    Parameters
    ----------
    total_rate:
        Aggregate mean submissions/s across all functions (scale knob).
    opportunistic_fraction:
        Fraction of *delay-tolerant-eligible* functions given
        opportunistic quota (the paper is actively migrating functions
        to opportunistic, §5.3).
    """
    rng = RngStream("population", 0)
    counts = split_functions(n_functions)
    # Mild Zipf for team assignment within small populations; the exact
    # §6 concentration curve lives in categories.team_weights and is
    # exercised by the team-skew benchmark at realistic team counts.
    weights = _zipf_shares(N_TEAMS, 1.1, rng)
    team_names = [f"team-{i:02d}" for i in range(N_TEAMS)]
    diurnal = diurnal or DiurnalRate(base_rate=1.0)
    diurnal_mean = diurnal.mean_rate()

    loads: List[FunctionLoad] = []
    for trigger in TriggerType:
        n_cat = counts.count_for(trigger)
        cat_rate = total_rate * CALL_SHARE[trigger]
        shares = _zipf_shares(n_cat, 1.1, rng)
        profile = profile_for(trigger)
        # The analytic lognormal mean: Monte-Carlo estimates of these
        # heavy-tailed distributions are dominated by whether the top
        # percentile happened to be drawn.
        mean_cpu = profile.mean_cpu(core_mips)
        for i in range(n_cat):
            team = rng.weighted_choice(team_names, weights)
            criticality = rng.weighted_choice(
                [c for c, _ in _CRITICALITY_WEIGHTS],
                [w for _, w in _CRITICALITY_WEIGHTS])
            deadline = rng.weighted_choice(
                [d for d, _ in _DEADLINES[trigger]],
                [w for _, w in _DEADLINES[trigger]])
            mean_rate = cat_rate * shares[i]
            quota_type = QuotaType.RESERVED
            if deadline >= 3600.0 and rng.random() < opportunistic_fraction:
                quota_type = QuotaType.OPPORTUNISTIC
            quota = max(mean_rate * mean_cpu * QUOTA_HEADROOM, 1.0)
            spec = FunctionSpec(
                name=f"{trigger.value}/fn-{i:04d}",
                team=team,
                trigger=trigger,
                criticality=criticality,
                quota_type=quota_type,
                quota_minstr_per_s=quota,
                deadline_s=deadline,
                profile=profile,
                retry_policy=RetryPolicy(),
                # Code + JIT + warm-cache footprint varies per function;
                # this is what locality groups save worker memory on.
                code_size_mb=rng.uniform(5.0, 40.0),
            )
            load = FunctionLoad(
                spec=spec,
                mean_rate=mean_rate,
                shape=diurnal,
                shape_mean=diurnal_mean,
                future_start_fraction=0.1 if spec.is_delay_tolerant else 0.0,
            )
            loads.append(load)
    return Population(loads=loads)


def estimate_demand_minstr(population: Population,
                           core_mips: float = 4000.0) -> float:
    """Mean CPU demand (million instr/s) of the whole population.

    Used with :func:`repro.cluster.size_topology_for_utilization` to
    provision a fleet at the paper's 66%-utilization operating point.
    """
    return sum(load.mean_rate * load.spec.profile.mean_cpu(core_mips)
               for load in population.loads)


def attach_spike(population: Population, function_name: str,
                 spike: SpikeTrain, core_mips: float = 4000.0) -> None:
    """Replace one function's shape with a spike train (Fig 4 clients).

    The function's ``mean_rate`` is re-derived from the spike train's
    daily volume, and its quota is re-sized to match (the owner of a
    bursty function still provisions quota for its *average* volume —
    that mismatch between burst rate and quota is exactly what defers
    the burst's execution across the day).
    """
    import dataclasses
    load = population.by_name(function_name)
    daily = spike.total_calls(0.0, DAY_S)
    load.shape = spike
    load.mean_rate = daily / DAY_S
    load.shape_mean = daily / DAY_S if daily > 0 else 1.0
    mean_cpu = load.spec.profile.mean_cpu(core_mips)
    quota = max(load.mean_rate * mean_cpu * QUOTA_HEADROOM, 1.0)
    load.spec = dataclasses.replace(load.spec, quota_minstr_per_s=quota)


SubmitFn = Callable[[FunctionSpec, float], None]


class ArrivalGenerator:
    """Tick-driven non-homogeneous Poisson submissions for a population.

    Every ``tick_s`` the generator draws Poisson(rate·tick) arrivals per
    function at a uniform offset inside the tick.
    ``submit_fn(spec, start_delay_s)`` is called at each arrival time;
    ``start_delay_s > 0`` means the caller requested a future execution
    start time (§4.6).

    **Lazy arrival streaming**: the tick's arrivals are *not*
    pre-materialized as one scheduled event each.  They are sorted into
    a pending list and streamed — only the *next* arrival lives in the
    kernel's event queue; its callback submits, then arms the one after
    it.  Peak queue size drops from O(arrivals per tick) to O(1) per
    generator while the RNG draw order, the arrival timestamps, and the
    submission order stay bit-identical to the eager version (the sort
    key ``(time, draw index)`` reproduces the heap's ``(time, seq)``
    tiebreak exactly).
    """

    def __init__(self, sim: Simulator, population: Population,
                 submit_fn: SubmitFn, tick_s: float = 10.0,
                 stop_at: float = DAY_S) -> None:
        if tick_s <= 0:
            raise ValueError(f"tick_s must be positive, got {tick_s}")
        self.sim = sim
        self.population = population
        self.submit_fn = submit_fn
        self.tick_s = tick_s
        self.stop_at = stop_at
        self.rng = sim.rng.stream("arrivals")
        self.submitted = 0
        #: Current tick's remaining arrivals: (abs time, draw idx, load).
        self._pending: List[Tuple[float, int, FunctionLoad]] = []
        self._next_idx = 0
        self._task = sim.every(tick_s, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        if now >= self.stop_at:
            self._task.cancel()
            return
        pending: List[Tuple[float, int, FunctionLoad]] = []
        uniform = self.rng.uniform
        tick_s = self.tick_s
        midpoint = now + tick_s / 2.0
        for load in self.population.loads:
            # Rate at the tick midpoint approximates the integral.
            rate = load.rate(midpoint)
            if rate <= 0:
                continue
            n = self.rng.poisson(rate * tick_s)
            for _ in range(n):
                pending.append((now + uniform(0.0, tick_s), len(pending), load))
        pending.sort()
        self._pending = pending
        self._next_idx = 0
        self._arm_next()

    def _arm_next(self) -> None:
        i = self._next_idx
        pending = self._pending
        if i >= len(pending):
            self._pending = []
            return
        self._next_idx = i + 1
        time, _, load = pending[i]
        self.sim.call_at(time, lambda: self._fire(load))

    def _fire(self, load: FunctionLoad) -> None:
        delay = 0.0
        if load.future_start_fraction > 0 and \
                self.rng.random() < load.future_start_fraction:
            delay = self.rng.uniform(0.0, load.future_start_horizon_s)
        self.submitted += 1
        self.submit_fn(load.spec, delay)
        self._arm_next()

    def cancel(self) -> None:
        self._task.cancel()
