"""Global Traffic Conductor: cross-region dispatch (§4.4).

The GTC maintains a near-real-time view of demand (pending calls) and
supply (worker-pool capacity) in every region and periodically computes
a traffic matrix T whose entry ``T[i][j]`` is the fraction of calls the
schedulers in region *i* should pull from region *j*'s DurableQs.

The published algorithm: start from the identity (every region pulls
only locally); while some region is overloaded, shift its excess to
*nearby* regions with spare capacity until no region is overloaded or
all regions are equally loaded.  "Nearby" uses the network model's ring
distance, honouring the §2.3 preference for short cross-region paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster.network import NetworkModel
from ..sim.kernel import Simulator
from .config import ConfigStore
from .rim import Rim
from .scheduler import TRAFFIC_MATRIX_KEY

TrafficMatrix = Dict[str, Dict[str, float]]

#: A region is overloaded when backlog exceeds this multiple of its
#: fair (capacity-proportional) share.
OVERLOAD_TOLERANCE = 1.10


@dataclass(frozen=True)
class GtcParams:
    """Traffic-matrix update cadence."""

    update_interval_s: float = 60.0

    def __post_init__(self) -> None:
        if self.update_interval_s <= 0:
            raise ValueError("update_interval_s must be positive")


def compute_traffic_matrix(backlog: Dict[str, float],
                           capacity: Dict[str, float],
                           network: NetworkModel,
                           tolerance: float = OVERLOAD_TOLERANCE
                           ) -> TrafficMatrix:
    """The §4.4 algorithm as a pure function (unit-testable).

    ``backlog[j]`` is region j's pending work (calls), ``capacity[i]``
    region i's worker capacity (any consistent unit).  Returns row-
    normalized T.
    """
    regions = sorted(set(backlog) | set(capacity))
    total_backlog = sum(max(backlog.get(r, 0.0), 0.0) for r in regions)
    total_capacity = sum(max(capacity.get(r, 0.0), 0.0) for r in regions)
    if total_backlog <= 0 or total_capacity <= 0:
        return {i: {i: 1.0} for i in regions}

    # Fair share: backlog distributed proportionally to capacity.
    fair = {r: total_backlog * capacity.get(r, 0.0) / total_capacity
            for r in regions}
    excess = {r: max(0.0, backlog.get(r, 0.0) - fair[r] * tolerance)
              for r in regions}
    spare = {r: max(0.0, fair[r] - backlog.get(r, 0.0)) for r in regions}

    # transfer[i][j]: calls scheduler i imports from region j.
    transfer: Dict[str, Dict[str, float]] = {i: {} for i in regions}
    for j in sorted(regions, key=lambda r: -excess[r]):
        if excess[j] <= 0:
            continue
        for i in network.neighbors_by_distance(j):
            if excess[j] <= 0:
                break
            take = min(excess[j], spare.get(i, 0.0))
            if take <= 0:
                continue
            transfer[i][j] = transfer[i].get(j, 0.0) + take
            spare[i] -= take
            excess[j] -= take

    # Row-normalize into pull fractions for each scheduler i.
    matrix: TrafficMatrix = {}
    exported = {j: sum(transfer[i].get(j, 0.0) for i in regions)
                for j in regions}
    for i in regions:
        kept = max(backlog.get(i, 0.0) - exported[i], 0.0)
        imported = transfer[i]
        volume = kept + sum(imported.values())
        if volume <= 0:
            matrix[i] = {i: 1.0}
            continue
        row = {i: kept / volume}
        for j, amount in imported.items():
            row[j] = row.get(j, 0.0) + amount / volume
        matrix[i] = row
    return matrix


class GlobalTrafficConductor:
    """Periodic controller publishing the traffic matrix via config."""

    def __init__(self, sim: Simulator, rim: Rim, config: ConfigStore,
                 network: NetworkModel,
                 params: GtcParams = GtcParams(),
                 enabled: bool = True) -> None:
        self.sim = sim
        self.rim = rim
        self.config = config
        self.network = network
        self.params = params
        self.enabled = enabled
        self.update_count = 0
        self.last_matrix: Optional[TrafficMatrix] = None
        self._task = None

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("GTC already started")
        self._task = self.sim.every(
            self.params.update_interval_s, self.update,
            start=self.sim.now + self.params.update_interval_s)

    def stop(self) -> None:
        """Simulates central-controller failure: matrices go stale (§4.1)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def update(self) -> None:
        if not self.enabled:
            return
        regions = self.rim.regions()
        backlog = {r: float(self.rim.region_backlog(r)) for r in regions}
        capacity = {r: self.rim.region_capacity(r) for r in regions}
        matrix = compute_traffic_matrix(backlog, capacity, self.network)
        self.last_matrix = matrix
        self.config.publish(TRAFFIC_MATRIX_KEY, matrix)
        self.update_count += 1
