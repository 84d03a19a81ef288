"""xbench: the repository benchmark, end to end and layer by layer.

Measure (every workload of BENCHMARK.json unless ``--workload`` names
some; each repetition is a fresh single-threaded child process, one at
a time, round-robin across workloads)::

    python3 benchmarks/xbench/run.py                  # R=5, seed 7
    python3 benchmarks/xbench/run.py --trace          # per-layer ledger
    python3 benchmarks/xbench/run.py --workload dayrun --seed 11 \
        --seconds 30 --trace 0 --out dayrun.json

Compare two result files, or run an interleaved A/B against a git
revision (the revision's ``src/`` under this benchmark code)::

    python3 benchmarks/xbench/run.py compare A.json B.json
    python3 benchmarks/xbench/run.py ab HEAD~1 --pairs 10

The last line of a measurement is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero when a child fails, when the repetitions of a workload
disagree on their trace digest, when the traced digest differs from the
untraced one, or when a run breaks a conservation check.
"""

# simlint: disable-file=SL002 -- host time is what this harness measures
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform as py_platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD = HERE / "child.py"
#: Longest a single repetition may take before the run fails.
CHILD_TIMEOUT_S = 120
#: Untraced repetitions per workload when no ``--seconds`` is given.
DEFAULT_REPS = 5
#: The same with ``--trace``, which adds one traced repetition each.
TRACE_REPS = 1
#: Repetitions per workload per side in each pair of ``ab``.
AB_REPS = 3
DEFAULT_SEED = 7
#: Mean host seconds of ``workloads.reference_loop`` on the host that
#: ``calls_per_s`` and ``setup_s`` are scaled to (its usual value on a
#: shared 2-CPU container).
#: Fixed for good: changing it rescales every recorded result.
REFERENCE_S = 0.00065
#: Trace digests at seed 7 (the dayrun and fleet-100k values are the
#: ``full`` and 100k-worker ``scale`` records of BENCH_kernel.json).
SEED7_DIGESTS = {
    "dayrun":
        "dbef27d6927c374205000d74b8b24bafb34660d74bcfa4b850cff807c27e5255",
    "fleet-100k":
        "aab219ec2ee738c05373aff17cb61fa9990f4917a99136bf0cb011bc0cd8a50b",
    "backpressure":
        "87f096c2113ae3c7abd4badbf75a38a24bcfc674e930b774c7232841287bac0f",
}
#: The layer self times must add up to the traced run time this closely.
LEDGER_TOLERANCE = 0.01
#: Simulated end-to-end outcomes.  They are deterministic for a seed, so
#: at one seed any change is real; across seeds they move by up to 25%
#: (dayrun median latency), which is why BENCHMARK.json, whose bounds
#: are checked against the spread over seeds, declares only the host
#: metrics.  ``absolute`` bounds are in the metric's unit.
SIMULATED: List[Dict[str, Any]] = [
    {"name": "sim_util", "unit": "fraction", "better": "higher",
     "bound": 0.005, "absolute": True},
    {"name": "sim_p50_s", "unit": "sim_s", "better": "lower", "bound": 0.01},
    {"name": "sim_p99_s", "unit": "sim_s", "better": "lower", "bound": 0.01},
    {"name": "done_frac", "unit": "fraction", "better": "higher",
     "bound": 0.005, "absolute": True},
    {"name": "failed_frac", "unit": "fraction", "better": "lower",
     "bound": 0.0, "absolute": True},
]


class BenchError(RuntimeError):
    """A repetition failed or its outputs are inconsistent."""


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def stat(samples: List[float], unit: str) -> Dict[str, Any]:
    """A metric entry: the median of the per-repetition samples as its
    ``value``, their quartiles, and the samples."""
    q1, med, q3 = quartiles(samples)
    return {"unit": unit, "value": med, "q1": q1, "q3": q3,
            "samples": samples}


def host_scale(child: dict) -> float:
    """The factor that scales a repetition's host seconds to the
    reference host: :data:`REFERENCE_S` over the mean time of the
    reference loop run between its clock windows.

    On a shared machine the speed of the host drifts by tens of per
    cent over minutes.  The simulator and the reference loop feel it
    alike, so scaled times keep the simulator's own cost.
    """
    return REFERENCE_S / child["reference_s"]


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, trace: int, src: Path) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--src", str(src)]
    # One string-hash layout for every repetition: a random one moves
    # the run loop's host time by a few per cent from process to process.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetition exceeded "
                         f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: child printed no result\n"
                         f"{proc.stdout[-500:]}{proc.stderr[-1500:]}") \
            from None


def collect(names: Sequence[str], seed: int, reps: int,
            seconds: Optional[float], trace: bool, src: Path
            ) -> Tuple[Dict[str, List[dict]], Dict[str, dict]]:
    """Untraced repetitions (and one traced pass) of each workload.

    Repetitions run round-robin across workloads, so a slow phase of a
    shared machine hits every workload alike.  With ``seconds`` rounds
    continue while one more, as long as the last, ends within that much
    host time (there is always one), else ``reps`` rounds run.
    """
    start = perf_counter()
    traced = {w: run_child(w, seed, 1, src) for w in names} if trace else {}
    untraced: Dict[str, List[dict]] = {w: [] for w in names}
    while True:
        round_start = perf_counter()
        for w in names:
            untraced[w].append(run_child(w, seed, 0, src))
        now = perf_counter()
        if seconds is None:
            if len(untraced[names[0]]) >= reps:
                break
        elif now + (now - round_start) - start > seconds:
            break
    return untraced, traced


def end_to_end(child: dict) -> Dict[str, float]:
    """One repetition's samples of the end-to-end metrics."""
    scale = host_scale(child)
    return {
        "calls_per_s": child["ops"] / (child["run_s"] * scale),
        "setup_s": child["setup_s"] * scale,
        "peak_rss_mb": child["peak_rss_mb"],
        "sim_util": child["sim_util"],
        "sim_p50_s": child["sim_p50_s"],
        "sim_p99_s": child["sim_p99_s"],
        "done_frac": child["done_frac"],
        "failed_frac": child["failed_frac"],
    }


def kernel_metrics(reps: List[dict], traced: dict) -> Dict[str, float]:
    """Kernel metrics taken from the untraced repetitions (the window
    times unscaled), and the traced run's overhead over their median."""
    windows_ms = [1000.0 * w for c in reps for w in c["windows_s"]]
    run_s = statistics.median(c["run_s"] * host_scale(c) for c in reps)
    return {
        "kernel.events": reps[0]["events"],
        "kernel.events_per_s": reps[0]["events"] / run_s,
        "kernel.window_ms_p50": percentile(windows_ms, 50),
        "kernel.window_ms_p99": percentile(windows_ms, 99),
        "kernel.trace_overhead": traced["run_s"] * host_scale(traced) / run_s,
    }


def summarize(name: str, reps: List[dict], traced: Optional[dict],
              spec: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's result: metric values and statistics, and checks.

    Every value is the median of its per-repetition samples.
    """
    first = reps[0]
    metrics = {m["name"]: stat([end_to_end(c)[m["name"]] for c in reps],
                               m["unit"])
               for m in spec["end_to_end"] + SIMULATED}
    digests = {c["trace_digest"] for c in reps}
    problems = sorted({p for c in reps for p in c["problems"]})
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the digest: "
                        f"{sorted(digests)}")
    out: Dict[str, Any] = {
        "seed": first["seed"], "n": len(reps), "ops": first["ops"],
        "failed_ops": first["failed_ops"], "events": first["events"],
        "trace_digest": first["trace_digest"],
        "digest_match": (first["trace_digest"] == SEED7_DIGESTS.get(name)
                         if first["seed"] == DEFAULT_SEED else None),
        "run_s": statistics.median(c["run_s"] for c in reps),
        "reference_s": statistics.median(c["reference_s"] for c in reps),
        "metrics": metrics,
    }
    if traced is not None:
        if traced["trace_digest"] != first["trace_digest"]:
            problems.append("traced digest differs from the untraced one")
        problems.extend(traced["problems"])
        layers = {**traced["layers"], **kernel_metrics(reps, traced)}
        self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        if abs(self_s - traced["run_s"]) > LEDGER_TOLERANCE * traced["run_s"]:
            problems.append(
                f"layer self times sum to {self_s:.3f} s of a "
                f"{traced['run_s']:.3f} s traced run; unattributed: "
                f"{traced['unmapped_s']}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        out["layers"] = {m: {"unit": u, "value": layers[m]}
                         for m, u in units.items()}
        out["traced_run_s"] = traced["run_s"]
    out["problems"] = problems
    out["correct"] = not problems
    return out


def measure(names: Sequence[str], seed: int, reps: int,
            seconds: Optional[float], trace: bool,
            spec: Dict[str, Any]) -> Dict[str, Any]:
    untraced, traced = collect(names, seed, reps, seconds, trace,
                               ROOT / "src")
    return {"workloads": {w: summarize(w, untraced[w], traced.get(w), spec)
                          for w in names}}


def provenance() -> Dict[str, Any]:
    """Source revision and machine of a result (git may be absent)."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain", "-uno"],
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else None
        if git and dirty.stdout.strip():
            git += "-dirty"
    except OSError:
        git = None
    return {"git": git, "cpu_count": os.cpu_count(),
            "python": py_platform.python_version()}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_result(name: str, res: Dict[str, Any]) -> None:
    match = {True: "match", False: "MISMATCH", None: "n/a (seed != 7)"}
    print(f"\n{name}  seed {res['seed']}  n={res['n']}  ops {res['ops']}  "
          f"failed_ops {res['failed_ops']}  events {res['events']}")
    print(f"  run loop {res['run_s']:.3f} s on this host, reference loop "
          f"{1000.0 * res['reference_s']:.4f} ms (medians; calls_per_s and "
          f"setup_s are scaled to {1000.0 * REFERENCE_S:g} ms)")
    print(f"  {'metric':<14} {'unit':<10} {'median':>14} {'q1':>14} "
          f"{'q3':>14}")
    for m, st in res["metrics"].items():
        print(f"  {m:<14} {st['unit']:<10} {st['value']:>14.6g} "
              f"{st['q1']:>14.6g} {st['q3']:>14.6g}")
    print(f"  digest {res['trace_digest'][:16]}…  "
          f"seed-7 digest: {match[res['digest_match']]}")
    if "layers" in res:
        lay = res["layers"]
        print(f"  per-layer ledger (traced run {res['traced_run_s']:.3f} s)")
        print(f"  {'layer':<11} {'calls':>10} {'self_s':>9} {'share':>7}  "
              f"other")
        names = [k[:-len(".calls")] for k in lay if k.endswith(".calls")]
        for layer in names:
            extra = "  ".join(
                f"{k.split('.', 1)[1]}={v['value']:.6g}"
                for k, v in lay.items()
                if k.startswith(layer + ".") and k.split(".", 1)[1]
                not in ("calls", "self_s", "share"))
            print(f"  {layer:<11} {lay[layer + '.calls']['value']:>10.0f} "
                  f"{lay[layer + '.self_s']['value']:>9.3f} "
                  f"{lay[layer + '.share']['value']:>7.3f}  {extra}")
    for p in res["problems"]:
        print(f"  PROBLEM: {p}")


def result_line(doc: Dict[str, Any], spec: Dict[str, Any],
                trace: bool) -> Dict[str, Any]:
    """The closing JSON object with the metrics BENCHMARK.json declares;
    names get a ``<workload>.`` prefix when several were measured."""
    declared = [m["name"] for m in spec["end_to_end"]]
    results = doc["workloads"]
    prefix = len(results) > 1
    metrics = {}
    for w, res in results.items():
        if trace:
            chosen = {m: v["value"] for m, v in res["layers"].items()}
            units = {m: v["unit"] for m, v in res["layers"].items()}
        else:
            chosen = {m: res["metrics"][m]["value"] for m in declared}
            units = {m: res["metrics"][m]["unit"] for m in declared}
        for m, v in chosen.items():
            metrics[f"{w}.{m}" if prefix else m] = {"value": v,
                                                    "unit": units[m]}
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["ops"] for r in results.values()),
            "failed": sum(r["failed_ops"] for r in results.values()),
            "metrics": metrics}


# ----------------------------------------------------------------------
# Comparing
# ----------------------------------------------------------------------
def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float, absolute: bool = False) -> str:
    """``better``, ``worse``, ``same`` or ``unresolved`` for B against A.

    ``a`` and ``b`` are metric entries (:func:`stat`).  ``worse``: B's
    value is worse than A's by more than the bound, a share of A's value
    (or, when ``absolute``, an amount in the unit).  ``unresolved``: the
    samples of either side spread (quartile distance, as a share of the
    median unless ``absolute``) wider than the bound, and B's samples do
    not all read better than all of A's.  ``better`` needs B's value to
    beat A's by more than A's quartile distance.
    """
    if a["value"] == b["value"] and a["samples"] == b["samples"]:
        return "same"
    sign = 1.0 if better == "higher" else -1.0

    def spread(st: Dict[str, Any]) -> float:
        return (st["q3"] - st["q1"]) / (
            1.0 if absolute else (abs(st["value"]) or 1e-12))

    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) > 0 for x in a["samples"]
               for y in b["samples"]):
            return "better"
        return "unresolved"
    diff = sign * (b["value"] - a["value"])
    gain = diff / (1.0 if absolute else (abs(a["value"]) or 1e-12))
    if gain < -bound:
        return "worse"
    if diff > a["q3"] - a["q1"] and diff > 0:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any],
            wins: Optional[Dict[Tuple[str, str], int]] = None,
            pairs: int = 0) -> int:
    """Print the per-workload, per-metric comparison; 1 on any worse."""
    worse = 0
    for w in [w for w in a["workloads"] if w in b["workloads"]]:
        ra, rb = a["workloads"][w], b["workloads"][w]
        print(f"\n{w}  A: seed {ra['seed']} n={ra['n']}   "
              f"B: seed {rb['seed']} n={rb['n']}")
        if ra["seed"] != rb["seed"]:
            print("  WARNING: different seeds; simulated metrics differ "
                  "by construction")
        print(f"  {'metric':<12} {'A value [q1, q3]':>34} "
              f"{'B value [q1, q3]':>34} {'B/A':>7}  verdict")
        for m in spec["end_to_end"] + SIMULATED:
            name = m["name"]
            sa, sb = ra["metrics"][name], rb["metrics"][name]
            v = verdict(sa, sb, m["better"], m["bound"],
                        m.get("absolute", False))
            worse += v == "worse"
            ratio = (f"{sb['value'] / sa['value']:.3f}" if sa["value"]
                     else "n/a")
            won = (f"  wins {wins[(w, name)]}/{pairs}"
                   if wins is not None and (w, name) in wins else "")
            print(f"  {name:<12} "
                  f"{_fmt(sa):>34} {_fmt(sb):>34} {ratio:>7}  {v}{won}")
        same = ra["trace_digest"] == rb["trace_digest"]
        print(f"  digest {'match' if same else 'DIFFERS'}   failed share "
              f"A {ra['metrics']['failed_frac']['value']:.6f}  "
              f"B {rb['metrics']['failed_frac']['value']:.6f}")
    print(f"\n{'FAIL' if worse else 'OK'}: {worse} worse")
    return 1 if worse else 0


def load_result(path: Path) -> Dict[str, Any]:
    """A result file.  One holding several ``invocations`` (a baseline)
    reads as one result over the pooled samples of its invocations."""
    doc = json.loads(path.read_text())
    if "invocations" not in doc:
        return doc
    invs = doc["invocations"]
    merged = json.loads(json.dumps(invs[0]))
    for w, res in merged["workloads"].items():
        res["n"] = sum(inv["workloads"][w]["n"] for inv in invs)
        for m, st in res["metrics"].items():
            res["metrics"][m] = stat(
                [x for inv in invs
                 for x in inv["workloads"][w]["metrics"][m]["samples"]],
                st["unit"])
    return merged


def _fmt(st: Dict[str, Any]) -> str:
    return f"{st['value']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}]"


def export_src(ref: str, dest: Path) -> Path:
    """Extract ``src/`` of a git revision into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref, "src"],
                         cwd=ROOT, capture_output=True, timeout=120)
    if tar.returncode != 0:
        raise BenchError(f"git archive {ref}: "
                         f"{tar.stderr.decode(errors='replace')}")
    # The "data" filter exists from Python 3.12 and in late 3.8-3.11
    # releases; without it, extraction trusts an archive git just made
    # from this repository.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, **safe)  # type: ignore[arg-type]
    return dest / "src"


def ab(ref: str, pairs: int, names: Sequence[str], seed: int,
       spec: Dict[str, Any]) -> int:
    """Interleaved A/B: REF's ``src/`` (A) against the working tree's (B).

    Both sides run this benchmark code with identical settings; the side
    that goes first alternates from pair to pair.
    """
    with tempfile.TemporaryDirectory(prefix="xbench-") as tmp:
        sides = {"A": export_src(ref, Path(tmp)), "B": ROOT / "src"}
        runs: Dict[str, Dict[str, List[dict]]] = {
            s: {w: [] for w in names} for s in sides}
        wins: Dict[Tuple[str, str], int] = {
            (w, m["name"]): 0 for w in names for m in spec["end_to_end"]}
        for i in range(pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            pair = {}
            for side in order:
                pair[side], _ = collect(names, seed, AB_REPS, None, False,
                                        sides[side])
                for w in names:
                    runs[side][w].extend(pair[side][w])
            for w in names:
                va, vb = (summarize(w, pair[s][w], None, spec)["metrics"]
                          for s in ("A", "B"))
                for m in spec["end_to_end"]:
                    sign = 1.0 if m["better"] == "higher" else -1.0
                    wins[(w, m["name"])] += sign * (
                        vb[m["name"]]["value"] - va[m["name"]]["value"]) > 0
            print(f"pair {i + 1}/{pairs} done ({' then '.join(order)})",
                  flush=True)
    docs = {s: {"workloads": {w: summarize(w, runs[s][w], None, spec)
                              for w in names}} for s in sides}
    print(f"\nA = {ref}, B = working tree; {pairs} pairs × {AB_REPS} "
          f"repetitions")
    code = compare(docs["A"], docs["B"], spec, wins, pairs)
    bad = [f"{w} ({s})" for s in docs
           for w, r in docs[s]["workloads"].items() if not r["correct"]]
    if bad:
        print(f"incorrect runs: {', '.join(bad)}")
        return 1
    return code


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    all_names = [w["name"] for w in spec["workloads"]]
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("a", type=Path)
        ap.add_argument("b", type=Path)
        args = ap.parse_args(argv[1:])
        return compare(load_result(args.a), load_result(args.b), spec)
    if argv[:1] == ["ab"]:
        ap = argparse.ArgumentParser(prog="run.py ab")
        ap.add_argument("ref", help="git revision to measure as side A")
        ap.add_argument("--pairs", type=int, default=10)
        ap.add_argument("--workload", action="append", choices=all_names)
        ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
        args = ap.parse_args(argv[1:])
        if args.pairs < 1:
            ap.error("--pairs must be >= 1")
        try:
            return ab(args.ref, args.pairs, args.workload or all_names,
                      args.seed, spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    ap = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=all_names,
                    help="measure only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"repeat for this much host time (default: "
                         f"{DEFAULT_REPS} untraced repetitions per "
                         f"workload, {TRACE_REPS} with --trace)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="add a traced pass and report the per-layer "
                         "ledger instead of the end-to-end metrics")
    ap.add_argument("--out", type=Path, help="write the full result here")
    args = ap.parse_args(argv)
    reps = TRACE_REPS if args.trace else DEFAULT_REPS
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be positive")
    names = args.workload or all_names
    try:
        doc = measure(names, args.seed, reps, args.seconds,
                      bool(args.trace), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w, res in doc["workloads"].items():
        print_result(w, res)
    if args.out is not None:
        doc = {"provenance": provenance(), **doc}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    line = result_line(doc, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
