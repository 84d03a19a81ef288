"""Central metrics registry shared by all platform components."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .timeseries import Counter, Distribution, Gauge


class MetricsRegistry:
    """Lazily-created named counters, gauges, and distributions.

    Naming convention is dotted paths, e.g. ``calls.received``,
    ``region.r3.utilization``, ``worker.r1-w7.memory_mb``.
    """

    def __init__(self, counter_window: float = 60.0) -> None:
        self.counter_window = counter_window
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._distributions: Dict[str, Distribution] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, window: Optional[float] = None) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(
                name, window if window is not None else self.counter_window)
        return self._counters[name]

    def gauge(self, name: str, initial: float = 0.0, t0: float = 0.0) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, initial, t0)
        return self._gauges[name]

    def distribution(self, name: str) -> Distribution:
        if name not in self._distributions:
            self._distributions[name] = Distribution(name)
        return self._distributions[name]

    # ------------------------------------------------------------------
    # Bound handles: components resolve a metric once at init and keep
    # the object; the per-event path then calls the handle directly with
    # zero registry involvement.  Handles stay valid across
    # snapshot/merge *reads* (those never replace the stored objects),
    # but a component must re-bind if it swaps registries.
    def bind_counter(self, name: str, window: Optional[float] = None) -> Counter:
        """Resolve-once handle for a hot-path counter (same object as
        :meth:`counter`; the separate name marks hot-path intent)."""
        return self.counter(name, window)

    def bind_gauge(self, name: str, initial: float = 0.0,
                   t0: float = 0.0) -> Gauge:
        return self.gauge(name, initial, t0)

    def bind_distribution(self, name: str) -> Distribution:
        return self.distribution(name)

    # ------------------------------------------------------------------
    def has_counter(self, name: str) -> bool:
        return name in self._counters

    def has_gauge(self, name: str) -> bool:
        return name in self._gauges

    def has_distribution(self, name: str) -> bool:
        return name in self._distributions

    def counters_matching(self, prefix: str) -> Iterable[Counter]:
        return (c for n, c in sorted(self._counters.items())
                if n.startswith(prefix))

    # ------------------------------------------------------------------
    # Snapshot / merge: ship a registry across a process boundary as a
    # plain dict and fold per-shard registries into fleet-level metrics.
    def snapshot(self) -> Dict[str, Any]:
        return {
            "counter_window": self.counter_window,
            "counters": {n: c.snapshot()
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.snapshot()
                       for n, g in sorted(self._gauges.items())},
            "distributions": {n: d.snapshot()
                              for n, d in sorted(self._distributions.items())},
            # Always empty; kept only so existing metrics digests hold.
            "sketches": {},
        }

    def digest(self) -> str:
        """SHA-256 over a canonical encoding of :meth:`snapshot`.

        The metrics counterpart of ``TraceLog.digest``: the trace digest
        covers call lifecycles only, so controller and sampler output
        (utilization gauges, the Fig 10 memory distribution) needs its
        own.  The encoding is JSON with sorted keys and ``repr`` floats,
        so equal digests mean bit-equal values.  A distribution is a
        multiset that percentile queries sort in place, so its samples
        are hashed in sorted order: reading a percentile never changes
        the digest.
        """
        snap = self.snapshot()
        for dist in snap["distributions"].values():
            dist["samples"].sort()
        encoded = json.dumps(snap, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "MetricsRegistry":
        reg = cls(counter_window=snap.get("counter_window", 60.0))
        for name, s in snap.get("counters", {}).items():
            reg._counters[name] = Counter.from_snapshot(s)
        for name, s in snap.get("gauges", {}).items():
            reg._gauges[name] = Gauge.from_snapshot(s)
        for name, s in snap.get("distributions", {}).items():
            reg._distributions[name] = Distribution.from_snapshot(s)
        return reg

    def merge(self, other: Union["MetricsRegistry", dict]) -> "MetricsRegistry":
        """Fold another registry (or its :meth:`snapshot`) into this one.

        Metrics present in both are merged per-type; metrics only in
        ``other`` are deep-copied in, so later mutation of ``other``
        never aliases into this registry.  Merging a registry into
        itself would double every count, so it raises ``ValueError``;
        merging its own :meth:`snapshot` is an ordinary fold.
        """
        if other is self:
            raise ValueError("cannot merge a MetricsRegistry into itself")
        if isinstance(other, dict):
            other = MetricsRegistry.from_snapshot(other)
        pairs: List[Tuple[Dict[str, Any], Dict[str, Any], Any]] = [
            (self._counters, other._counters, Counter),
            (self._gauges, other._gauges, Gauge),
            (self._distributions, other._distributions, Distribution)]
        for mine, theirs, kind in pairs:
            for name, metric in theirs.items():
                if name in mine:
                    mine[name].merge(metric)
                else:
                    mine[name] = kind.from_snapshot(metric.snapshot())
        return self
