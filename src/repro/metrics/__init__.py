"""Metrics: time series, registry, reporting."""

from .recorder import MetricsRegistry
from .report import format_table, series_block, sparkline
from .timeseries import Counter, Distribution, Gauge

__all__ = [
    "Counter",
    "Distribution",
    "Gauge",
    "MetricsRegistry",
    "format_table",
    "series_block",
    "sparkline",
]
