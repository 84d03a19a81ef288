"""Merge per-run results into fleet-level statistics.

Two complementary aggregations:

* :func:`merge_metrics` folds the per-process ``MetricsRegistry``
  snapshots into one registry (exact for counters, gauges and
  distributions) — "what did the whole sweep's fleet look like as one
  population".
* :func:`aggregate_summaries` treats each run's headline scalars as an
  independent observation per variant label and reports mean ± 95%
  confidence interval — "how seed-sensitive is each claim".
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..metrics import MetricsRegistry
from .spec import RunResult

#: Two-sided 97.5% Student-t critical values by degrees of freedom;
#: beyond the table the normal 1.96 is close enough.
_T_975 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
          7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131,
          20: 2.086, 25: 2.060, 30: 2.042}


def t_critical(df: int) -> float:
    if df <= 0:
        return float("inf")
    if df in _T_975:
        return _T_975[df]
    for known in sorted(_T_975):
        if df < known:
            return _T_975[known]
    return 1.96


def confidence_interval(values: Sequence[float]) -> Dict[str, float]:
    """Mean and 95% CI half-width of an independent sample."""
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    mean = sum(values) / n
    if n == 1:
        return {"n": 1, "mean": mean, "std": 0.0, "ci95": float("nan")}
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    return {"n": n, "mean": mean, "std": std,
            "ci95": t_critical(n - 1) * std / math.sqrt(n)}


def merge_metrics(results: Iterable[RunResult],
                  label: Optional[str] = None) -> MetricsRegistry:
    """Fold the metric snapshots of (successful) runs into one registry."""
    merged = MetricsRegistry()
    for res in results:
        if not res.ok or not res.metrics:
            continue
        if label is not None and res.label != label:
            continue
        merged.merge(res.metrics)
    return merged


def aggregate_summaries(results: Sequence[RunResult]) -> Dict[str, dict]:
    """Per-variant mean ± CI for every headline summary statistic.

    Returns ``{label: {stat: {n, mean, std, ci95}}}`` over successful
    runs, preserving first-appearance label order.
    """
    by_label: Dict[str, List[RunResult]] = {}
    for res in results:
        if res.ok:
            by_label.setdefault(res.label, []).append(res)
    out: Dict[str, dict] = {}
    for label, group in by_label.items():
        stats: Dict[str, dict] = {}
        keys = sorted({k for r in group for k in r.summary})
        for key in keys:
            values = [r.summary[key] for r in group if key in r.summary]
            if values:
                stats[key] = confidence_interval(values)
        out[label] = stats
    return out


def sweep_report(results: Sequence[RunResult],
                 include_metrics: bool = False) -> Dict[str, Any]:
    """The JSON document the CLI and benches emit for a finished sweep."""
    aggregates = aggregate_summaries(results)
    merged_quantiles: Dict[str, dict] = {}
    for label in aggregates:
        merged = merge_metrics(results, label=label)
        if merged.has_distribution("latency.completion"):
            lat = merged.distribution("latency.completion")
            if len(lat):
                merged_quantiles[label] = {
                    "count": len(lat),
                    "p50_s": lat.percentile(50),
                    "p95_s": lat.percentile(95),
                    "p99_s": lat.percentile(99),
                }
    return {
        "n_runs": len(results),
        "n_failed": sum(1 for r in results if not r.ok),
        "runs": [r.to_json(include_metrics=include_metrics)
                 for r in results],
        "aggregates": aggregates,
        "merged_latency": merged_quantiles,
    }
