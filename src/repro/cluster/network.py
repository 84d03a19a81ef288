"""Cross-region network model.

Paper §2.3: cross-region bandwidth is ~10× lower than intra-region, and
cross-region latency is ~100–1000× longer.  Components use this model to
(a) delay cross-region operations and (b) let the Global Traffic
Conductor prefer *nearby* regions when shifting load.
"""

from __future__ import annotations

from typing import Dict, Sequence


class NetworkModel:
    """Pairwise latency/bandwidth between regions on a ring layout.

    Regions are placed on a logical ring; "distance" is the hop count on
    the ring, which gives the GTC a meaningful notion of *nearby regions*
    (§4.4) without a full geographic model.
    """

    def __init__(self, region_names: Sequence[str],
                 intra_latency_s: float = 0.0005,
                 cross_latency_base_s: float = 0.05,
                 cross_latency_per_hop_s: float = 0.01,
                 intra_bandwidth_gbps: float = 100.0,
                 cross_bandwidth_gbps: float = 10.0) -> None:
        if not region_names:
            raise ValueError("need at least one region")
        if len(set(region_names)) != len(region_names):
            raise ValueError("duplicate region names")
        self.region_names = list(region_names)
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self.region_names)}
        self.intra_latency_s = intra_latency_s
        self.cross_latency_base_s = cross_latency_base_s
        self.cross_latency_per_hop_s = cross_latency_per_hop_s
        self.intra_bandwidth_gbps = intra_bandwidth_gbps
        self.cross_bandwidth_gbps = cross_bandwidth_gbps

    def hops(self, src: str, dst: str) -> int:
        """Ring distance between two regions (0 for same region)."""
        i, j = self._index[src], self._index[dst]
        n = len(self.region_names)
        d = abs(i - j)
        return min(d, n - d)

    def latency(self, src: str, dst: str) -> float:
        """One-way latency in seconds."""
        if src == dst:
            return self.intra_latency_s
        return (self.cross_latency_base_s +
                self.cross_latency_per_hop_s * (self.hops(src, dst) - 1))

    def bandwidth_gbps(self, src: str, dst: str) -> float:
        return (self.intra_bandwidth_gbps if src == dst
                else self.cross_bandwidth_gbps)

    def transfer_time(self, src: str, dst: str, size_mb: float) -> float:
        """Seconds to move ``size_mb`` between regions (latency + serialization)."""
        if size_mb < 0:
            raise ValueError(f"size_mb must be >= 0, got {size_mb}")
        gbps = self.bandwidth_gbps(src, dst)
        return self.latency(src, dst) + (size_mb * 8.0 / 1000.0) / gbps

    def neighbors_by_distance(self, src: str) -> list:
        """All other regions sorted by ring distance then name (stable)."""
        return sorted((r for r in self.region_names if r != src),
                      key=lambda r: (self.hops(src, r), r))
