"""The ``--check`` gates of ``bench_speed`` and ``bench_scale`` fail closed.

With no committed record to compare against, a check must exit 1 and
name what is missing, never report a pass.  Both gates decide this
before running anything, so these tests simulate nothing.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_scale  # noqa: E402
import bench_speed  # noqa: E402


@pytest.mark.parametrize("argv, missing", [
    (["--quick", "--check"], "'quick'"),
    (["--check"], "'full'"),
])
def test_bench_speed_check_without_baseline_fails(
        monkeypatch, capsys, argv, missing):
    monkeypatch.setattr(bench_speed, "load_records", lambda: [])
    assert bench_speed.main(argv) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and missing in out


def test_bench_scale_check_without_baseline_fails(monkeypatch, capsys):
    monkeypatch.setattr(bench_scale, "load_records", lambda: [])
    assert bench_scale.main(["--rungs", "1000,10000", "--check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "n=1000, n=10000" in out


def test_bench_scale_calendar_records_are_not_baselines():
    calendar = {"mode": "scale", "n_workers": 1000, "backend": "calendar",
                "events_per_sec": 1.0}
    heap = dict(calendar, backend="heap")
    current = {"mode": "scale", "n_workers": 1000, "events_per_sec": 2.0}
    assert bench_scale.scale_baseline([calendar], 1000) == {}
    assert bench_scale.scale_baseline([heap, calendar], 1000) is heap
    assert bench_scale.scale_baseline([heap, current], 1000) is current
