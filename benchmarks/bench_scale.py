"""Fleet-scale ladder benchmark: events/sec at 1k / 10k / 100k workers.

``bench_speed`` answers "how fast is the kernel on the reference
dayrun"; this bench answers the scaling question behind the
struct-of-arrays refactor: *does per-event cost stay flat as the fleet
grows two orders of magnitude?*  Each rung builds the same workload
(:func:`repro.scenarios.build_fleetrun`) over an explicit worker count
and times fleet construction and event processing separately, so the
recorded events/sec measures steady-state dispatch, not topology setup.

Records from before the calendar-queue backend was removed carry a
``backend`` field; only the ``"heap"`` ones are baselines for today's
single kernel.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py
        # full ladder (1k, 10k, 100k), appends records
    PYTHONPATH=src python benchmarks/bench_scale.py --rungs 1000
        # subset of rungs (comma-separated worker counts)
    PYTHONPATH=src python benchmarks/bench_scale.py --rungs 1000 --check
        # CI gate: no file write; exits 1 when any rung drops more
        # than --max-regression below its newest committed record, or
        # when a rung has no committed record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BENCH_FILE = REPO_ROOT / "BENCH_kernel.json"

sys.path.insert(0, str(BENCH_DIR))
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import require_label  # noqa: E402
from bench_speed import (  # noqa: E402
    latest_baseline,
    load_records,
    provenance,
    trace_digest,
)

from repro.scenarios import build_fleetrun  # noqa: E402

DEFAULT_RUNGS = (1_000, 10_000, 100_000)
HORIZON_S = 600.0


def run_rung(n_workers: int, label: str = "", repeat: int = 3) -> dict:
    """Best-of-``repeat`` measurement of one rung.

    Wall-clock on a shared box is one-sided noise (contention only ever
    slows a run down), so the fastest of N repeats is the most stable
    estimator of the code's real cost.  Every repeat must produce the
    same trace digest — the runs are bit-identical by construction.
    """
    best = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        run = build_fleetrun(n_workers, horizon_s=HORIZON_S, run_sim=False)
        t1 = time.perf_counter()
        run.sim.run_until(run.horizon_s)
        wall_s = time.perf_counter() - t1
        sim, platform = run.sim, run.platform
        rec = {
            "mode": "scale",
            "label": label,
            "n_workers": n_workers,
            "horizon_s": HORIZON_S,
            "events_executed": sim.events_executed,
            "setup_s": round(t1 - t0, 3),
            "wall_s": round(wall_s, 3),
            "events_per_sec": round(sim.events_executed / wall_s, 1),
            "n_traces": len(platform.traces),
            "trace_digest": trace_digest(platform),
            **provenance(),
        }
        if best is not None and rec["trace_digest"] != best["trace_digest"]:
            raise AssertionError(
                f"non-deterministic repeat at n={n_workers}: "
                f"{rec['trace_digest'][:12]} vs {best['trace_digest'][:12]}")
        if best is None or rec["wall_s"] < best["wall_s"]:
            best = rec
    return best


def scale_baseline(records: list, n_workers: int) -> dict:
    for rec in reversed(records):
        if (rec.get("mode") == "scale"
                and rec.get("n_workers") == n_workers
                and rec.get("backend", "heap") == "heap"):
            return rec
    return {}


def parse_rungs(spec: str) -> list:
    rungs = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    if not rungs or any(r < 4 for r in rungs):
        raise argparse.ArgumentTypeError(
            f"--rungs needs comma-separated worker counts >= 4, got {spec!r}")
    return rungs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rungs", type=parse_rungs,
                        default=list(DEFAULT_RUNGS),
                        help="comma-separated worker counts "
                             "(default 1000,10000,100000)")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed baselines instead of "
                             "appending records; non-zero exit on excessive "
                             "regression or a rung with no baseline")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional events/sec drop per "
                             "rung in --check mode (default 0.25)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repeats per rung; the fastest run is "
                             "recorded (default 3)")
    parser.add_argument("--label", default="",
                        help="free-form description stored with each record")
    args = parser.parse_args(argv)
    require_label(parser, args)

    records = load_records()
    if args.check:
        missing = [n for n in args.rungs if not scale_baseline(records, n)]
        if missing:
            print(f"FAIL: no committed scale record in {BENCH_FILE.name} "
                  "for rung(s) " + ", ".join(f"n={n}" for n in missing))
            return 1
    full_ref = latest_baseline(records, "full")
    failures = 0
    new_records = []

    for n_workers in args.rungs:
        rec = run_rung(n_workers, args.label, repeat=args.repeat)
        print(f"[scale n={n_workers}] "
              f"{rec['events_executed']} events in {rec['wall_s']:.2f}s "
              f"(+{rec['setup_s']:.2f}s setup) -> "
              f"{rec['events_per_sec']:.0f} events/sec "
              f"(digest {rec['trace_digest'][:12]}...)")
        if full_ref:
            print(f"vs newest full-mode dayrun record "
                  f"({full_ref['events_per_sec']:.0f} events/sec): "
                  f"{rec['events_per_sec'] / full_ref['events_per_sec']:.2f}x")

        baseline = scale_baseline(records, n_workers)
        if baseline:
            ratio = rec["events_per_sec"] / baseline["events_per_sec"]
            same = baseline.get("trace_digest") == rec["trace_digest"]
            print(f"  baseline {baseline['events_per_sec']:.0f} events/sec "
                  f"-> {ratio:.2f}x, digest "
                  f"{'identical' if same else 'DIVERGED'}")
        if args.check:
            floor = baseline["events_per_sec"] * (1.0 - args.max_regression)
            if rec["events_per_sec"] < floor:
                print(f"FAIL: n={n_workers} "
                      f"{rec['events_per_sec']:.0f} events/sec is below "
                      f"the {floor:.0f} floor "
                      f"({args.max_regression:.0%} regression budget)")
                failures += 1
        elif (baseline
                and baseline.get("label") == rec["label"]
                and baseline.get("trace_digest") == rec["trace_digest"]):
            # Same dedup rule as bench_speed: label + bit-identical
            # digest.  The git hash is deliberately NOT part of the key
            # — a commit that doesn't change behavior would otherwise
            # re-append an identical measurement per rev.
            print("  unchanged vs newest committed record; not appending")
        else:
            new_records.append(rec)

    if failures:
        return 1
    if not args.check and new_records:
        records.extend(new_records)
        BENCH_FILE.write_text(json.dumps(records, indent=1) + "\n")
        print(f"appended {len(new_records)} record(s) to {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
