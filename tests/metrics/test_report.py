"""Tests for table/sparkline formatting."""

from repro.metrics import format_table, series_block, sparkline
from repro.metrics.recorder import MetricsRegistry


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = out.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_large_numbers_comma_grouped(self):
        out = format_table(["n"], [[1234567.0]])
        assert "1,234,567" in out


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_rising_series_shape(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert s[0] == "▁" and s[-1] == "█"

    def test_downsampling_to_width(self):
        s = sparkline(list(range(1000)), width=50)
        assert len(s) == 50

    def test_series_block_contains_stats(self):
        out = series_block("load", [1.0, 2.0, 4.0])
        assert "min=1" in out and "max=4" in out and "peak/trough=4.00x" in out


class TestMetricsRegistry:
    def test_counter_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.distribution("d") is reg.distribution("d")

    def test_prefix_matching(self):
        reg = MetricsRegistry()
        reg.counter("region.a.x")
        reg.counter("region.b.x")
        reg.counter("other")
        assert len(list(reg.counters_matching("region."))) == 2

    def test_has_checks(self):
        reg = MetricsRegistry()
        assert not reg.has_gauge("g")
        reg.gauge("g")
        assert reg.has_gauge("g")
