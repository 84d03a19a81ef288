"""Shared fixtures for the benchmark suite.

The expensive artifact is ``dayrun`` — one full simulated day on a
6-region platform under the paper-shaped workload (diurnal 4.3×
peak-to-trough with the midnight spike, Table 1 category mix, Table 3
resource shapes, a Figure 4 spiky function, reserved + opportunistic
quota mix).  Figures 2, 4, 7, 8, 9, 10, 11 and Tables 1/3 are all read
off this single run, exactly as the paper reads them off production.

The builder itself lives in :mod:`repro.scenarios` so the sweep engine
can run it in worker processes; this module re-exports it for the
benchmarks (``from conftest import build_dayrun`` keeps working).

Every benchmark writes the rows/series it reproduces into
``benchmarks/results/<name>.txt`` (and asserts the qualitative shape).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenarios import DayRun, build_dayrun

RESULTS_DIR = Path(__file__).parent / "results"


def require_label(parser, args) -> None:
    """Benchmark writers call this before appending a record.

    Committed benchmark records are provenance: an empty ``label`` makes
    a number unexplainable a PR later (what machine state? what change
    was being measured?).  Appending therefore requires a non-empty
    ``--label``; read-only ``--check`` runs are exempt because they
    write nothing.
    """
    if getattr(args, "check", False):
        return
    if not (args.label or "").strip():
        parser.error("--label is required when appending a benchmark "
                     "record (describe what this measurement is); "
                     "use --check for a no-write comparison run")


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    # Also echo to stdout for `pytest -s` runs.
    print(f"\n===== {name} =====\n{text}")
    return path


@pytest.fixture(scope="session")
def dayrun() -> DayRun:
    return build_dayrun()
