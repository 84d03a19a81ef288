"""Kernel speed benchmark: events/sec on a scaled dayrun.

Runs the shared ``conftest.build_dayrun`` workload over a shortened
horizon and records simulator throughput into ``BENCH_kernel.json`` at
the repo root, so every PR lands on a measured trajectory.  The record
also carries a SHA-256 digest of the full call-trace, making any
behavioral drift of an "optimization" visible next to its speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py
        # full (1 h horizon), appends a record
    PYTHONPATH=src python benchmarks/bench_speed.py --quick
        # short smoke run (10 min horizon)
    PYTHONPATH=src python benchmarks/bench_speed.py --quick --check
        # CI gate: no file write; exits 1 when events/sec drops more
        # than --max-regression (default 25%) below the newest committed
        # record of the same mode, or when there is no such record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as py_platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BENCH_FILE = REPO_ROOT / "BENCH_kernel.json"

sys.path.insert(0, str(BENCH_DIR))
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import build_dayrun, require_label  # noqa: E402

FULL_HORIZON_S = 3600.0
QUICK_HORIZON_S = 600.0


def peak_rss_mb() -> float:
    """Process peak resident set size in MB (informational).

    ``ru_maxrss`` is the high-water mark over the whole process
    lifetime, which for a one-run bench process is the run's peak.  Not
    a gate — RSS depends on the allocator and interpreter build — but a
    committed series of it makes memory regressions visible next to the
    throughput numbers.
    """
    try:
        import resource
    except ImportError:       # non-POSIX platform
        return 0.0
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kb / 1024.0, 1)


def provenance() -> dict:
    """Machine/source context stamped into every appended record.

    Throughput numbers are only comparable on the same machine against
    the same source; the git short hash, CPU count, and interpreter
    version let a reader (and the --check gate's audience) judge whether
    two records are actually comparable.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10)
        git_rev = out.stdout.strip() if out.returncode == 0 else None
        if git_rev:
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "-uno"], cwd=REPO_ROOT,
                capture_output=True, text=True, timeout=10)
            if dirty.returncode == 0 and dirty.stdout.strip():
                git_rev += "-dirty"
    except OSError:
        git_rev = None
    return {
        "git": git_rev or None,
        "cpu_count": os.cpu_count(),
        "python": py_platform.python_version(),
    }


def trace_digest(platform) -> str:
    # Delegates to the library so benches and the sweep engine can never
    # drift apart on what "behaviorally identical" means.
    return platform.traces.digest()


def run_benchmark(mode: str, label: str = "") -> dict:
    horizon = QUICK_HORIZON_S if mode == "quick" else FULL_HORIZON_S
    t0 = time.perf_counter()
    run = build_dayrun(horizon_s=horizon)
    wall_s = time.perf_counter() - t0
    sim, platform = run.sim, run.platform
    return {
        "mode": mode,
        "label": label,
        "horizon_s": horizon,
        "events_executed": sim.events_executed,
        "wall_s": round(wall_s, 3),
        "events_per_sec": round(sim.events_executed / wall_s, 1),
        "n_traces": len(platform.traces),
        "trace_digest": trace_digest(platform),
        "peak_rss_mb": peak_rss_mb(),
        **provenance(),
    }


def load_records(path: Path = BENCH_FILE) -> list:
    if not path.exists():
        return []
    return json.loads(path.read_text())


def latest_baseline(records: list, mode: str) -> dict:
    for rec in reversed(records):
        if rec.get("mode") == mode:
            return rec
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short smoke run instead of the 1 h dayrun")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline instead "
                             "of appending a record; non-zero exit on "
                             "excessive regression")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional events/sec drop in --check "
                             "mode (default 0.25)")
    parser.add_argument("--label", default="",
                        help="free-form description stored with the record")
    args = parser.parse_args(argv)
    require_label(parser, args)

    mode = "quick" if args.quick else "full"
    records = load_records()
    baseline = latest_baseline(records, mode)
    if args.check and not baseline:
        print(f"FAIL: no committed {mode!r} record in {BENCH_FILE.name} "
              "to check against")
        return 1

    rec = run_benchmark(mode, args.label)
    print(f"[{mode}] {rec['events_executed']} events in {rec['wall_s']:.2f}s "
          f"-> {rec['events_per_sec']:.0f} events/sec "
          f"({rec['n_traces']} traces, digest {rec['trace_digest'][:12]}..., "
          f"peak RSS {rec['peak_rss_mb']:.0f} MB)")

    if baseline:
        base_evps = baseline["events_per_sec"]
        ratio = rec["events_per_sec"] / base_evps
        print(f"baseline ({baseline.get('label') or 'previous'}): "
              f"{base_evps:.0f} events/sec -> {ratio:.2f}x")
        if baseline.get("trace_digest") and \
                baseline.get("horizon_s") == rec["horizon_s"]:
            same = baseline["trace_digest"] == rec["trace_digest"]
            print("trace digest vs baseline: "
                  f"{'identical' if same else 'DIVERGED'}")

    if args.check:
        floor = baseline["events_per_sec"] * (1.0 - args.max_regression)
        if rec["events_per_sec"] < floor:
            print(f"FAIL: {rec['events_per_sec']:.0f} events/sec is below "
                  f"the {floor:.0f} floor "
                  f"({args.max_regression:.0%} regression budget)")
            return 1
        print(f"OK: above the {floor:.0f} events/sec regression floor")
        return 0

    if baseline and baseline.get("label") == rec["label"] and \
            baseline.get("trace_digest") == rec["trace_digest"]:
        # Same label and bit-identical behavior as the newest committed
        # record of this mode: appending would only accumulate noise.
        print(f"unchanged: newest {mode} record already has this label "
              "and trace digest; not appending")
        return 0

    records.append(rec)
    BENCH_FILE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"appended record to {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
