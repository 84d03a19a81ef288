"""QueueLB: routes submitted calls to DurableQs (§4.3).

The Configuration Management System delivers a routing policy mapping
each (source-region, destination-region) pair to a traffic fraction, so
QueueLBs can balance the *storage* load across regions whose DurableQ
capacity varies as wildly as worker capacity does (Fig 5).  Within the
destination region, calls are sharded across DurableQs by a random UUID,
spreading each function's calls evenly over shards.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..sim.kernel import Simulator
from .call import FunctionCall
from .config import CachedConfig, ConfigStore
from .durableq import DurableQ

ROUTING_KEY = "queuelb/routing"


def local_only_routing(regions: List[str]) -> Dict[str, Dict[str, float]]:
    """Default policy: every region stores its own submissions."""
    return {src: {src: 1.0} for src in regions}


def capacity_proportional_routing(
        regions: List[str], shards_per_region: Dict[str, int],
        locality_bias: float = 0.5) -> Dict[str, Dict[str, float]]:
    """Blend regional locality with DurableQ-capacity proportionality.

    ``locality_bias`` of the traffic stays local; the rest is spread
    proportionally to each region's DurableQ shard count.
    """
    if not 0 <= locality_bias <= 1:
        raise ValueError("locality_bias must be in [0, 1]")
    total = sum(shards_per_region.get(r, 0) for r in regions)
    if total == 0:
        return local_only_routing(regions)
    policy: Dict[str, Dict[str, float]] = {}
    for src in regions:
        row = {}
        for dst in regions:
            share = shards_per_region.get(dst, 0) / total
            row[dst] = (1.0 - locality_bias) * share
        row[src] = row.get(src, 0.0) + locality_bias
        policy[src] = row
    return policy


class QueueLB:
    """One region's queue load balancer (stateless, replicated)."""

    def __init__(self, sim: Simulator, region: str,
                 durableqs_by_region: Dict[str, List[DurableQ]],
                 config: ConfigStore,
                 rng_name: Optional[str] = None) -> None:
        if region not in durableqs_by_region:
            raise ValueError(f"no DurableQs registered for region {region!r}")
        self.sim = sim
        self.region = region
        self.durableqs_by_region = durableqs_by_region
        self.rng = sim.rng.stream(rng_name or f"queuelb/{region}")
        default_policy = local_only_routing(list(durableqs_by_region))
        self._routing = CachedConfig(sim, config, ROUTING_KEY,
                                     default=default_policy)
        self.routed_count = 0
        # Chooser memo keyed on the active routing row's identity; the
        # row object only changes when a new policy propagates, so the
        # cumulative-weight table is rebuilt per policy update instead of
        # per routed call.
        self._row_chooser: Tuple[Optional[dict], Optional[Callable[[], str]]] \
            = (None, None)

    def route(self, call: FunctionCall) -> DurableQ:
        """Pick a DurableQ for the call and enqueue it there."""
        dst_region = self._pick_region()
        shards = self.durableqs_by_region.get(dst_region)
        if not shards:
            shards = self.durableqs_by_region[self.region]
            dst_region = self.region
        # UUID sharding → uniform random shard (§4.3).
        shard = self.rng.choice(shards)
        shard.enqueue(call)
        self.routed_count += 1
        return shard

    def _pick_region(self) -> str:
        policy = self._routing.value or {}
        row = policy.get(self.region)
        if not row:
            return self.region
        memo_row, chooser = self._row_chooser
        if row is not memo_row:
            regions = sorted(row)
            weights = [max(row[r], 0.0) for r in regions]
            if sum(weights) <= 0:
                chooser = None
            else:
                chooser = self.rng.weighted_chooser(regions, weights)
            self._row_chooser = (row, chooser)
        if chooser is None:
            return self.region
        return chooser()

    def stop(self) -> None:
        self._routing.stop()
