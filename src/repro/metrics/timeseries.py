"""Time-series primitives used to record and report experiment output.

Three flavours cover everything the paper's figures need:

* :class:`Counter` — monotonically increasing totals, bucketed into
  fixed windows ("function calls received per minute", Fig 2/4).
* :class:`Gauge` — piecewise-constant level with time-weighted
  statistics ("worker memory", Fig 10; "CPU utilization", Fig 8).
* :class:`Distribution` — value samples for percentile reporting
  (Table 3, Fig 9).

All three support ``snapshot()`` / ``from_snapshot()`` / ``merge()`` so
per-process copies produced by the sweep engine (:mod:`repro.sweep`) can
be shipped across a ``multiprocessing`` boundary as plain dicts and
folded into fleet-level metrics.  Counter and Distribution merges are
exact (bucket sums / sample concatenation); a Gauge merge sums the two
piecewise-constant levels over the union of their breakpoints, which is
the fleet semantic ("total memory across shards"), not an average.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Counter:
    """Event counter bucketed into fixed-size time windows.

    Buckets live in a dense ``array('d')`` (C doubles, no per-bucket
    boxing) anchored at ``_base`` — the bucket index of ``_counts[0]``.
    The hot :meth:`add` path is one index computation and one in-place
    float add; the array only grows when time crosses into a bucket
    beyond either end.
    """

    __slots__ = ("name", "window", "total", "_counts", "_base")

    def __init__(self, name: str, window: float = 60.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.name = name
        self.window = window
        self.total = 0.0
        self._counts: array = array("d")
        self._base = 0

    def add(self, time: float, amount: float = 1.0) -> None:
        self.total += amount
        idx = int(time // self.window)
        counts = self._counts
        n = len(counts)
        if n == 0:
            self._base = idx
            counts.append(amount)
            return
        off = idx - self._base
        if 0 <= off < n:
            counts[off] += amount
        elif off >= n:
            counts.frombytes(bytes(8 * (off - n)))  # zero-filled doubles
            counts.append(amount)
        else:
            grown = array("d", bytes(8 * -off))
            grown[0] = amount
            grown.extend(counts)
            self._counts = grown
            self._base = idx

    def series(self, t_start: float = 0.0,
               t_end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Dense per-window series of (window start time, count)."""
        counts = self._counts
        if not counts:
            return []
        base = self._base
        lo = int(t_start // self.window)
        hi = base + len(counts) - 1 if t_end is None else int(
            math.ceil(t_end / self.window)) - 1
        return [(i * self.window,
                 counts[i - base] if 0 <= i - base < len(counts) else 0.0)
                for i in range(lo, hi + 1)]

    def values(self, t_start: float = 0.0,
               t_end: Optional[float] = None) -> List[float]:
        return [v for _, v in self.series(t_start, t_end)]

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable plain-dict state (see module docstring)."""
        return {"kind": "counter", "name": self.name, "window": self.window,
                "total": self.total, "base": self._base,
                "counts": list(self._counts)}

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "Counter":
        counter = cls(snap["name"], snap["window"])
        counter.total = snap["total"]
        counter._base = snap["base"]
        counter._counts = array("d", snap["counts"])
        return counter

    def merge(self, other: "Counter") -> "Counter":
        """Fold ``other`` into this counter (exact bucket-wise sum)."""
        if other.window != self.window:
            raise ValueError(
                f"cannot merge counter {other.name!r} (window {other.window}) "
                f"into {self.name!r} (window {self.window})")
        if not other._counts:
            return self
        self.total += other.total
        if not self._counts:
            self._base = other._base
            self._counts = array("d", other._counts)
            return self
        lo = min(self._base, other._base)
        hi = max(self._base + len(self._counts),
                 other._base + len(other._counts))
        merged = array("d", bytes(8 * (hi - lo)))
        for base, counts in ((self._base, self._counts),
                             (other._base, other._counts)):
            off = base - lo
            for i, v in enumerate(counts):
                merged[off + i] += v
        self._base = lo
        self._counts = merged
        return self


class Gauge:
    """A piecewise-constant level supporting time-weighted statistics."""

    __slots__ = ("name", "_points")

    def __init__(self, name: str, initial: float = 0.0, t0: float = 0.0) -> None:
        self.name = name
        self._points: List[Tuple[float, float]] = [(t0, initial)]

    @property
    def value(self) -> float:
        return self._points[-1][1]

    def set(self, time: float, value: float) -> None:
        last_t, last_v = self._points[-1]
        if time < last_t:
            raise ValueError(f"gauge {self.name!r}: time went backwards "
                             f"({time} < {last_t})")
        if value == last_v:
            return
        if time == last_t:
            self._points[-1] = (time, value)
        else:
            self._points.append((time, value))

    def adjust(self, time: float, delta: float) -> None:
        self.set(time, self.value + delta)

    def time_average(self, t_start: float, t_end: float) -> float:
        """Time-weighted mean of the gauge over [t_start, t_end]."""
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        area = 0.0
        points = self._points
        for i, (t, v) in enumerate(points):
            seg_start = max(t, t_start)
            seg_end = points[i + 1][0] if i + 1 < len(points) else t_end
            seg_end = min(seg_end, t_end)
            if seg_end > seg_start:
                area += v * (seg_end - seg_start)
        # Portion before the first point uses the first value.
        first_t, first_v = points[0]
        if t_start < first_t:
            area += first_v * (min(first_t, t_end) - t_start)
        return area / (t_end - t_start)

    def sampled(self, t_start: float, t_end: float,
                step: float) -> List[Tuple[float, float]]:
        """Sample the gauge at fixed steps (for plotting-style output)."""
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        out = []
        times = [p[0] for p in self._points]
        t = t_start
        while t <= t_end + 1e-9:
            i = bisect.bisect_right(times, t) - 1
            out.append((t, self._points[max(i, 0)][1]))
            t += step
        return out

    def max_value(self, t_start: float = 0.0,
                  t_end: float = math.inf) -> float:
        vals = [v for t, v in self._points if t_start <= t <= t_end]
        if not vals:
            # gauge constant over the interval: value at t_start applies
            times = [p[0] for p in self._points]
            i = bisect.bisect_right(times, t_start) - 1
            return self._points[max(i, 0)][1]
        return max(vals)

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {"kind": "gauge", "name": self.name,
                "points": [list(p) for p in self._points]}

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "Gauge":
        gauge = cls(snap["name"])
        gauge._points = [(t, v) for t, v in snap["points"]]
        return gauge

    def merge(self, other: "Gauge") -> "Gauge":
        """Sum the two levels over the union of their breakpoints.

        The merged gauge at time ``t`` equals ``self(t) + other(t)``
        (each gauge extends its first value backwards in time, matching
        :meth:`time_average`), which aggregates per-shard levels into a
        fleet total.
        """
        pts_a, pts_b = self._points, other._points
        times = sorted({t for t, _ in pts_a} | {t for t, _ in pts_b})
        ia = ib = 0
        va, vb = pts_a[0][1], pts_b[0][1]
        merged: List[Tuple[float, float]] = []
        for t in times:
            while ia < len(pts_a) and pts_a[ia][0] <= t:
                va = pts_a[ia][1]
                ia += 1
            while ib < len(pts_b) and pts_b[ib][0] <= t:
                vb = pts_b[ib][1]
                ib += 1
            v = va + vb
            if not merged or merged[-1][1] != v:
                merged.append((t, v))
        self._points = merged
        return self


class Distribution:
    """Collected samples with exact percentile queries.

    Stores all samples in an ``array('d')`` — C doubles are lossless for
    Python floats, take 8 bytes instead of a 28-byte boxed float plus an
    8-byte list slot, and append faster on million-sample runs.
    Percentiles use the nearest-rank method the paper's Pxx notation
    implies; sorting happens lazily at query time, at most once per
    batch of appends.
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: array = array("d")
        self._sorted = True

    def __len__(self) -> int:
        return len(self._samples)

    def add(self, value: float) -> None:
        samples = self._samples
        if samples and value < samples[-1]:
            self._sorted = False
        samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        """Append ``values`` in order (one C-level ``array.extend``)."""
        samples = self._samples
        n = len(samples)
        samples.extend(values)
        if len(samples) != n:
            self._sorted = False

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples = array("d", sorted(self._samples))
            self._sorted = True

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 100]."""
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} is empty")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        self._ensure_sorted()
        if p == 0:
            return self._samples[0]
        rank = max(1, math.ceil(p / 100.0 * len(self._samples)))
        return self._samples[rank - 1]

    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} is empty")
        return sum(self._samples) / len(self._samples)

    def min(self) -> float:
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} is empty")
        self._ensure_sorted()
        return self._samples[0]

    def max(self) -> float:
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} is empty")
        self._ensure_sorted()
        return self._samples[-1]

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``."""
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} is empty")
        self._ensure_sorted()
        return bisect.bisect_left(self._samples, threshold) / len(self._samples)

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {"kind": "distribution", "name": self.name,
                "samples": list(self._samples)}

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "Distribution":
        dist = cls(snap["name"])
        dist._samples = array("d", snap["samples"])
        dist._sorted = all(a <= b for a, b in
                           zip(dist._samples, dist._samples[1:]))
        return dist

    def merge(self, other: "Distribution") -> "Distribution":
        """Concatenate ``other``'s samples; percentiles stay exact."""
        if not len(other._samples):
            return self
        boundary_ok = (not self._samples or
                       other._samples[0] >= self._samples[-1])
        self._sorted = self._sorted and other._sorted and boundary_ok
        self._samples.extend(other._samples)
        return self
