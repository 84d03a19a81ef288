"""The ``--check`` gate of ``bench_sweep`` fails closed.

A sweep whose runs failed, or whose serial and parallel digests differ,
must exit 1 and print ``FAIL``.  ``run_benchmark`` is replaced by a
canned record, so these tests simulate nothing.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_sweep  # noqa: E402

PASSING = {
    "n_runs": 2, "cpu_count": 4, "workers": 2,
    "wall_serial_s": 2.0, "wall_parallel_s": 1.0, "speedup": 2.0,
    "run_wall_serial_s": [1.0, 1.0], "run_wall_parallel_s": [1.0, 1.0],
    "all_ok": True, "digests_identical": True,
    "fleet_util_mean": 0.7, "fleet_util_ci95": 0.01,
}


def _check(monkeypatch, rec) -> int:
    monkeypatch.setattr(bench_sweep, "run_benchmark",
                        lambda mode, workers, label="": rec)
    return bench_sweep.main(["--quick", "--check"])


def test_check_passes_identical_sweep(monkeypatch, capsys):
    assert _check(monkeypatch, PASSING) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["digests_identical", "all_ok"])
def test_check_fails_closed(monkeypatch, capsys, flag):
    assert _check(monkeypatch, dict(PASSING, **{flag: False})) == 1
    assert "FAIL" in capsys.readouterr().out
