"""Command-line interface: run paper-shaped simulations without code.

Examples::

    python -m repro simulate --hours 6 --rate 4 --regions 4
    python -m repro simulate --hours 24 --rate 8 --no-time-shifting
    python -m repro simulate --hours 2 --json
    python -m repro sweep --runs 4 --workers 4 --ablate time-shifting
    python -m repro profile --quick
    python -m repro lifecycle
    python -m repro growth --years 5

``simulate`` is a front end to :func:`repro.scenarios.build_dayrun`, the
dayrun the benchmark suite uses: diurnal 4.3× peak-to-trough with the
midnight spike, a Figure 4 spiky function from 6 h on, Table 1 trigger
mix and Table 3 resource distributions, on a fleet sized for ~70% mean
utilization.  It prints the Figure 2/7/8-style summary (or a
machine-readable JSON document with ``--json``), its headline numbers
taken from :func:`repro.scenarios.summarize_run`.

``sweep`` fans a grid of (variant × seed) dayrun simulations out over
worker processes and reports per-variant mean ± 95% CI for the headline
statistics — the multi-seed backing for the Fig 7 utilization claim and
the ablation grid.

``profile`` runs the dayrun under the deterministic time-attribution
profiler (or, with ``--alloc``, tracemalloc) and prints where the wall
time (or memory) goes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from typing import Any, Callable

from .analysis import (
    peak_to_trough,
    quota_cpu_series,
    received_vs_executed,
    region_utilization_averages,
)
from .analysis.shapes import complementarity, pearson
from .baselines import BASELINE_STEPS, baseline_model, xfaas_model
from .core import LocalityParams, XFaaS
from .metrics import format_table, series_block
from .scenarios import DayRun, build_dayrun, fleet_utilization, summarize_run
from .sweep import ABLATIONS, build_grid, run_sweep, sweep_report
from .workloads import figure3_model


def _cmd_simulate(args: argparse.Namespace) -> int:
    horizon_s = args.hours * 3600.0
    if not args.json:
        print(f"simulating {args.hours} h, {args.rate} calls/s mean over "
              f"{args.regions} regions ...", flush=True)
    run = build_dayrun(
        seed=args.seed, total_rate=args.rate, horizon_s=horizon_s,
        n_functions=args.functions, n_regions=args.regions,
        opportunistic_fraction=args.opportunistic,
        peak_to_trough=args.peak_to_trough,
        target_utilization=args.target_utilization,
        overrides={
            "locality": LocalityParams(n_groups=args.locality_groups),
            "locality_groups": args.locality_groups > 1,
            "time_shifting": not args.no_time_shifting,
            "global_dispatch": not args.no_global_dispatch,
        },
        sanitize=args.sanitize)
    platform = run.platform
    summary = summarize_run(run)
    utils = region_utilization_averages(platform, min(3600.0, horizon_s / 4),
                                        horizon_s)
    fleet = fleet_utilization(run)

    if args.json:
        print(json.dumps(_simulate_summary(args, run, summary, utils, fleet),
                         indent=1))
        return _digest_gate(args, platform, "run")

    received, executed = received_vs_executed(platform, 0, horizon_s)
    print()
    print(series_block("received per minute", received))
    print()
    print(series_block("executed per minute", executed))
    print()
    rows = [[r, f"{100 * u:.1f}%"] for r, u in sorted(utils.items())]
    rows.append(["FLEET MEAN",
                 f"{100 * statistics.mean(utils.values()):.1f}%"])
    print(format_table(["region", "avg CPU utilization"], rows))
    print()
    reserved, opportunistic = quota_cpu_series(platform, 0, horizon_s)
    if sum(opportunistic) > 0 and len(reserved) >= 4:
        k = max(1, len(reserved) // 48)

        def bucket(xs):
            return [sum(xs[i:i + k]) for i in range(0, len(xs), k)]
        r_b, o_b = bucket(reserved), bucket(opportunistic)
        print("reserved/opportunistic CPU correlation: "
              f"{pearson(r_b, o_b):.3f} "
              f"(complementarity {complementarity(r_b, o_b):.3f})")
    print(f"{platform.topology.total_workers('default')} workers: "
          f"submitted {summary['submitted']}, "
          f"completed {summary['completed']}, "
          f"still queued {summary['backlog']}")
    if fleet:
        print("fleet utilization: mean "
              f"{summary['fleet_util_mean']:.3f}, "
              f"peak-to-trough {peak_to_trough(fleet, 0.02):.2f}x "
              "(paper: 66% mean, 1.4x)")
    return _digest_gate(args, platform, "run")


def _digest_gate(args: argparse.Namespace, platform: XFaaS, run: str,
                 cause: str = "") -> int:
    """Exit status of ``--expect-digest`` / ``--expect-metrics-digest``.

    1 when the run's trace or metrics digest differs from the expected
    one, with a message on stderr naming ``run`` and ``cause``.
    """
    status = 0
    for kind, expected, digest in (
            ("trace", args.expect_digest, platform.traces.digest),
            ("metrics", args.expect_metrics_digest, platform.metrics.digest)):
        if expected:
            got = digest()
            if got != expected:
                print(f"DIGEST MISMATCH ({kind}): {run} produced {got}, "
                      f"expected {expected}{cause}", file=sys.stderr)
                status = 1
    return status


def _simulate_summary(args: argparse.Namespace, run: DayRun, summary: dict,
                      utils: dict, fleet: list) -> dict:
    """Machine-readable run summary for ``simulate --json``.

    CI's digest gates read it; keys are stable API.  The headline
    numbers are :func:`~repro.scenarios.summarize_run`'s.
    """
    out = {
        "config": {
            "hours": args.hours, "rate": args.rate,
            "functions": args.functions, "regions": args.regions,
            "seed": args.seed, "peak_to_trough": args.peak_to_trough,
            "opportunistic": args.opportunistic,
            "target_utilization": args.target_utilization,
            "locality_groups": args.locality_groups,
            "time_shifting": not args.no_time_shifting,
            "global_dispatch": not args.no_global_dispatch,
            "sanitize": args.sanitize,
        },
        "events_executed": summary["events_executed"],
        "submitted": summary["submitted"],
        "completed": summary["completed"],
        "backlog": summary["backlog"],
        "throttled": summary["throttled"],
        "trace_digest": run.platform.traces.digest(),
        "metrics_digest": run.platform.metrics.digest(),
        "region_utilization": {r: u for r, u in sorted(utils.items())},
        "fleet_util_mean": summary["fleet_util_mean"],
        "fleet_util_peak_to_trough": (peak_to_trough(fleet, 0.02)
                                      if fleet else 0.0),
    }
    if "latency_p50_s" in summary:
        out["latency_s"] = {q: summary[f"latency_{q}_s"]
                            for q in ("p50", "p95", "p99")}
    return out


def _cmd_sweep(args: argparse.Namespace) -> int:
    variants = [("baseline", {})]
    for name in args.ablate or []:
        variants.append((f"no {name}", dict(ABLATIONS[name])))
    specs = build_grid(
        n_reps=args.runs, master_seed=args.master_seed, variants=variants,
        horizon_s=args.hours * 3600.0, total_rate=args.rate,
        n_functions=args.functions, n_regions=args.regions)

    if not args.json:
        print(f"sweeping {len(specs)} runs ({len(variants)} variant(s) × "
              f"{args.runs} seed(s), {args.hours} h each) on "
              f"{args.workers} worker(s) ...", flush=True)
    results = run_sweep(specs, workers=args.workers)
    report = sweep_report(results)

    if args.json:
        print(json.dumps(report, indent=1))
        return 1 if report["n_failed"] else 0

    rows = []
    for res in report["runs"]:
        summ = res["summary"]
        rows.append([
            res["index"], res["label"], res["seed"] % 100_000,
            "ok" if res["ok"] else "FAILED",
            res["trace_digest"][:12],
            summ.get("completed", "-"),
            f"{summ['fleet_util_mean']:.3f}" if "fleet_util_mean" in summ
            else "-",
            f"{res['wall_s']:.1f}",
        ])
    print(format_table(
        ["run", "variant", "seed%1e5", "status", "digest", "completed",
         "fleet util", "wall (s)"], rows, title="sweep runs"))
    print()
    agg_rows = []
    for label, stats in report["aggregates"].items():
        for key in ("fleet_util_mean", "completed", "latency_p50_s",
                    "latency_p95_s"):
            if key in stats:
                s = stats[key]
                ci = "" if s["n"] < 2 else f" ± {s['ci95']:.4g}"
                agg_rows.append([label, key, s["n"],
                                 f"{s['mean']:.4g}{ci}"])
    print(format_table(["variant", "statistic", "n", "mean ± 95% CI"],
                       agg_rows, title="per-variant aggregates"))
    if report["merged_latency"]:
        print()
        print(format_table(
            ["variant", "samples", "P50 (s)", "P95 (s)", "P99 (s)"],
            [[label, q["count"], f"{q['p50_s']:.1f}", f"{q['p95_s']:.1f}",
              f"{q['p99_s']:.1f}"]
             for label, q in report["merged_latency"].items()],
            title="merged completion latency (all seeds pooled)"))
    failed = [r for r in report["runs"] if not r["ok"]]
    for res in failed:
        print(f"\nrun {res['index']} ({res['label']}) FAILED:\n{res['error']}")
    return 1 if failed else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profile import ProfileRecorder

    horizon_s = 600.0 if args.quick else args.hours * 3600.0
    if args.alloc:
        return _profile_alloc(args, horizon_s)
    recorder = ProfileRecorder()
    if not args.json:
        print(f"profiling dayrun ({horizon_s / 3600.0:.2f} h simulated, "
              f"seed {args.seed}) ...", flush=True)
    with recorder.installed():
        run = build_dayrun(seed=args.seed, horizon_s=horizon_s,
                           profiler=recorder)
    digest = run.platform.traces.digest()
    metrics_digest = run.platform.metrics.digest()

    if args.flamegraph:
        folded = recorder.collapsed()
        if args.flamegraph == "-":
            print(folded)
        else:
            with open(args.flamegraph, "w") as fh:
                fh.write(folded + "\n")
            if not args.json:
                print(f"folded stacks written to {args.flamegraph} "
                      "(render with flamegraph.pl or speedscope)")

    if args.json:
        print(json.dumps({
            "horizon_s": horizon_s, "seed": args.seed,
            "events_executed": run.sim.events_executed,
            "trace_digest": digest,
            "metrics_digest": metrics_digest,
            "profile": recorder.to_json(),
        }, indent=1))
    else:
        print()
        print(recorder.table(top=args.top))
        print()
        print(f"events executed: {run.sim.events_executed}, "
              f"trace digest {digest[:12]}..., "
              f"metrics digest {metrics_digest[:12]}...")
    return _digest_gate(args, run.platform, "profiled run",
                        " — profiling changed simulation behavior")


def _profile_alloc(args: argparse.Namespace, horizon_s: float) -> int:
    """``profile --alloc``: tracemalloc attribution instead of wall time."""
    from .profile import AllocationRecorder, cyclic_garbage

    if not args.json:
        print(f"tracing allocations over a dayrun "
              f"({horizon_s / 3600.0:.2f} h simulated, seed {args.seed}) "
              "...", flush=True)
    recorder = AllocationRecorder()
    with cyclic_garbage() as garbage, recorder.capturing():
        run = build_dayrun(seed=args.seed, horizon_s=horizon_s)
    digest = run.platform.traces.digest()
    metrics_digest = run.platform.metrics.digest()
    calls = {
        "submitted": run.platform.submitted_count,
        "peak_in_flight": len(run.platform.arena),
        "in_flight_at_end": run.platform.arena.live,
    }
    if args.json:
        print(json.dumps({
            "horizon_s": horizon_s, "seed": args.seed,
            "events_executed": run.sim.events_executed,
            "trace_digest": digest,
            "metrics_digest": metrics_digest,
            "alloc": recorder.to_json(top=args.top),
            "calls": calls,
            "cyclic_garbage": garbage,
        }, indent=1))
    else:
        print()
        print(recorder.table(top=args.top))
        print()
        print(f"calls: {calls['submitted']} submitted, "
              f"{calls['peak_in_flight']} peak in flight, "
              f"{calls['in_flight_at_end']} in flight at end")
        detail = ", ".join(f"{name} {n}" for name, n in garbage.items())
        print(f"cyclic garbage after the run: {sum(garbage.values())} "
              f"objects" + (f" ({detail})" if detail else ""))
        print(f"events executed: {run.sim.events_executed}, "
              f"trace digest {digest[:12]}..., "
              f"metrics digest {metrics_digest[:12]}...")
    return _digest_gate(args, run.platform, "traced run",
                        " — allocation tracing changed simulation behavior")


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    rows = [[n, name, cost] for n, name, cost in BASELINE_STEPS]
    print(format_table(["step", "name", "baseline cost (s)"], rows,
                       title="Figure 1 — function lifecycle"))
    print()
    base = baseline_model().breakdown(args.execute_s, cold=True)
    xf = xfaas_model().breakdown(args.execute_s, cold=True)
    print(format_table(
        ["platform", "startup (s)", "idle+shutdown (s)", "billable %"],
        [["conventional (cold)", base.startup_overhead_s,
          base.idle_overhead_s + base.shutdown_s,
          100 * base.billable_fraction],
         ["XFaaS", xf.startup_overhead_s,
          xf.idle_overhead_s + xf.shutdown_s,
          100 * xf.billable_fraction]]))
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    model = figure3_model()
    days = args.years * 365
    from .metrics import sparkline
    series = [v for _, v in model.series(days=days, step_days=30)]
    print("Figure 3 — normalized daily invocations")
    print("  " + sparkline(series))
    print(f"  growth over {args.years} years: "
          f"{model.growth_factor(days):.1f}x (paper: ~50x in 5 years)")
    return 0


def _checked(kind: type, ok: Callable[[Any], bool], want: str
             ) -> Callable[[str], Any]:
    """An argparse ``type``: parse with ``kind``, reject unless ``ok``.

    A rejected value becomes a usage error (exit 2) instead of a
    traceback from deep inside the model.
    """
    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {want}")
        return value
    return parse


_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "> 0")
_NON_NEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                         ">= 0")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
_SHARE = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
#: ``DiurnalRate`` needs its peak at least its default ``day_ratio``.
_PEAK_TO_TROUGH = _checked(float, lambda v: math.isfinite(v) and v >= 2.0,
                           ">= 2.0")


def _at_least(low: int) -> Callable[[str], Any]:
    return _checked(int, lambda v: v >= low, f">= {low}")


#: ``split_functions`` needs one function per workload category.
_FUNCTIONS = _at_least(3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XFaaS (SOSP 2023) reproduction — simulation CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate",
                           help="run a paper-shaped workload simulation")
    sim_p.add_argument("--hours", type=_POSITIVE, default=6.0)
    sim_p.add_argument("--rate", type=_POSITIVE, default=4.0,
                       help="mean submissions/s across all functions")
    sim_p.add_argument("--functions", type=_FUNCTIONS, default=60)
    sim_p.add_argument("--regions", type=_at_least(1), default=4)
    sim_p.add_argument("--seed", type=int, default=7)
    sim_p.add_argument("--peak-to-trough", type=_PEAK_TO_TROUGH, default=4.3)
    sim_p.add_argument("--opportunistic", type=_SHARE, default=0.6,
                       help="fraction of eligible functions on "
                            "opportunistic quota")
    sim_p.add_argument("--target-utilization", type=_FRACTION, default=0.70)
    sim_p.add_argument("--locality-groups", type=_at_least(1), default=3)
    sim_p.add_argument("--no-time-shifting", action="store_true")
    sim_p.add_argument("--no-global-dispatch", action="store_true")
    sim_p.add_argument("--sanitize", action="store_true",
                       help="run under the simsan runtime sanitizer: "
                            "bit-identical digest, but RNG-order / "
                            "dict-order / lease-protocol violations raise")
    sim_p.add_argument("--expect-digest", metavar="SHA256",
                       help="fail unless the run's trace digest matches "
                            "(CI parity check)")
    sim_p.add_argument("--expect-metrics-digest", metavar="SHA256",
                       help="fail unless the run's metrics digest matches")
    sim_p.add_argument("--json", action="store_true",
                       help="emit the run summary as machine-readable JSON")
    sim_p.set_defaults(func=_cmd_simulate)

    sweep_p = sub.add_parser(
        "sweep", help="run a multi-seed / ablation grid across CPU cores")
    sweep_p.add_argument("--runs", type=_at_least(1), default=4,
                         help="seeds (repetitions) per variant")
    sweep_p.add_argument("--master-seed", type=int, default=7,
                         help="per-run seeds are derived from this")
    sweep_p.add_argument("--hours", type=_POSITIVE, default=2.0,
                         help="simulated horizon per run")
    sweep_p.add_argument("--rate", type=_POSITIVE, default=4.0)
    sweep_p.add_argument("--functions", type=_FUNCTIONS, default=40)
    sweep_p.add_argument("--regions", type=_at_least(1), default=4)
    sweep_p.add_argument("--ablate", action="append",
                         choices=sorted(ABLATIONS),
                         help="add a variant with this §1.2 technique off "
                              "(repeatable)")
    sweep_p.add_argument("--workers", type=_at_least(1), default=1,
                         help="worker processes (1 = serial, in-process)")
    sweep_p.add_argument("--json", action="store_true",
                         help="emit the full sweep report as JSON")
    sweep_p.set_defaults(func=_cmd_sweep)

    prof_p = sub.add_parser(
        "profile",
        help="run a dayrun under the deterministic time-attribution "
             "profiler and print where wall time goes")
    prof_p.add_argument("--quick", action="store_true",
                        help="10 simulated minutes instead of --hours")
    prof_p.add_argument("--hours", type=_POSITIVE, default=1.0)
    prof_p.add_argument("--seed", type=int, default=7)
    prof_p.add_argument("--top", type=_at_least(1), default=None,
                        help="show only the top N rows by self time")
    prof_p.add_argument("--json", action="store_true",
                        help="emit the attribution data as JSON")
    prof_p.add_argument("--flamegraph", metavar="PATH",
                        help="write collapsed stacks for flamegraph.pl / "
                             "speedscope ('-' for stdout)")
    prof_p.add_argument("--alloc", action="store_true",
                        help="attribute allocations (tracemalloc) instead "
                             "of wall time: live blocks/bytes per source "
                             "file, peak traced memory, and the peak "
                             "number of calls in flight")
    prof_p.add_argument("--expect-digest", metavar="SHA256",
                        help="fail unless the profiled run's trace digest "
                             "matches (CI parity check)")
    prof_p.add_argument("--expect-metrics-digest", metavar="SHA256",
                        help="fail unless the profiled run's metrics "
                             "digest matches")
    prof_p.set_defaults(func=_cmd_profile)

    life_p = sub.add_parser("lifecycle",
                            help="print the Figure 1 lifecycle cost table")
    life_p.add_argument("--execute-s", type=_NON_NEGATIVE, default=1.0)
    life_p.set_defaults(func=_cmd_lifecycle)

    growth_p = sub.add_parser("growth",
                              help="print the Figure 3 growth curve")
    growth_p.add_argument("--years", type=_at_least(1), default=5)
    growth_p.set_defaults(func=_cmd_growth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
