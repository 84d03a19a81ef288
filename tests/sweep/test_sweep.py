"""Sweep engine: grid expansion, determinism under fan-out, failure
handling, and aggregation.

The headline invariant: the same specs and master seed produce
bit-identical per-run trace digests and identical merged statistics
whether the sweep runs serially in-process or across spawn workers.
"""

import math
import os
import time

import pytest

from repro.scenarios import SCENARIOS
from repro.sim import derive_seed
from repro.sweep import (
    ABLATIONS,
    RunResult,
    RunSpec,
    aggregate_summaries,
    build_grid,
    confidence_interval,
    execute_spec,
    run_sweep,
    seed_for_rep,
    sweep_report,
)
from repro.sweep.aggregate import t_critical

# Small enough to keep the multiprocess test quick, big enough to
# exercise the full platform (spike may or may not attach at this size).
TINY = dict(horizon_s=900.0, total_rate=1.5, n_functions=20, n_regions=3)


def tiny_grid(n_reps=2, variants=None):
    return build_grid(n_reps=n_reps, master_seed=7, variants=variants, **TINY)


class TestGrid:
    def test_indices_and_order_are_deterministic(self):
        specs = tiny_grid(n_reps=3, variants=[("a", {}), ("b", {})])
        assert [s.index for s in specs] == list(range(6))
        assert [s.label for s in specs] == ["a"] * 3 + ["b"] * 3
        assert specs == tiny_grid(n_reps=3, variants=[("a", {}), ("b", {})])

    def test_seeds_are_paired_across_variants(self):
        specs = tiny_grid(n_reps=2, variants=[("a", {}),
                                              ("b", {"time_shifting": False})])
        a_seeds = [s.seed for s in specs if s.label == "a"]
        b_seeds = [s.seed for s in specs if s.label == "b"]
        assert a_seeds == b_seeds  # rep i runs the same workload in A and B
        assert len(set(a_seeds)) == len(a_seeds)

    def test_seed_derivation_uses_master_seed(self):
        assert seed_for_rep(7, 0) == derive_seed(7, "sweep:rep0")
        assert seed_for_rep(7, 0) != seed_for_rep(8, 0)
        assert seed_for_rep(7, 0) != seed_for_rep(7, 1)

    def test_overrides_roundtrip_and_ablation_table(self):
        spec = tiny_grid(variants=[("x", ABLATIONS["time-shifting"])])[0]
        assert spec.overrides_dict() == {"time_shifting": False}
        assert set(ABLATIONS) == {"time-shifting", "global-dispatch",
                                  "locality-groups", "cooperative-jit",
                                  "aimd"}

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            build_grid(n_reps=0)
        with pytest.raises(ValueError):
            run_sweep([RunSpec(index=1, seed=1), RunSpec(index=1, seed=2)])


class TestExecution:
    def test_result_is_compact_and_serializable(self):
        import json
        import pickle
        res = execute_spec(tiny_grid(n_reps=1)[0])
        assert res.ok, res.error
        assert res.trace_digest and res.n_traces > 0
        assert res.summary["completed"] > 0
        assert res.latency_s
        pickle.dumps(res)
        json.dumps(res.to_json())

    def test_failed_spec_reported_sweep_continues(self):
        import dataclasses
        specs = [RunSpec(index=0, seed=1, scenario="no-such-scenario"),
                 dataclasses.replace(tiny_grid(n_reps=1)[0], index=1)]
        results = run_sweep(specs, workers=1)
        assert [r.index for r in results] == [0, 1]
        assert not results[0].ok
        assert "unknown scenario" in results[0].error
        assert results[1].ok
        report = sweep_report(results)
        assert report["n_failed"] == 1 and report["n_runs"] == 2

    def test_workers_do_not_change_results(self):
        """Same grid, workers 1 vs 4: identical digests and stats."""
        specs = tiny_grid(n_reps=2)
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=4)  # spawn pool
        assert all(r.ok for r in serial + parallel)
        assert [r.index for r in parallel] == [r.index for r in serial]
        assert [r.trace_digest for r in parallel] == \
               [r.trace_digest for r in serial]
        assert [r.summary for r in parallel] == [r.summary for r in serial]
        assert [r.latency_s for r in parallel] == \
               [r.latency_s for r in serial]
        merged = sweep_report(serial)["merged_latency"]
        assert sweep_report(parallel)["merged_latency"] == merged
        assert aggregate_summaries(serial) == aggregate_summaries(parallel)
        # The pooled quantiles are nearest-rank over the concatenated
        # per-run completion latencies.
        pooled = sorted(v for r in serial for v in r.latency_s)
        assert merged["baseline"]["count"] == len(pooled)
        for p in (50, 95, 99):
            rank = math.ceil(p / 100.0 * len(pooled))
            assert merged["baseline"][f"p{p}_s"] == pooled[rank - 1]

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="needs the fork start method")
    def test_dead_pool_process_fails_its_specs_and_returns(self, monkeypatch):
        # A scenario that kills its process outright: fork-started pool
        # processes inherit the patched table.  The sweep must return a
        # failed result per spec instead of waiting forever.
        monkeypatch.setitem(SCENARIOS, "die", lambda **_: os._exit(3))
        specs = [RunSpec(index=i, seed=i, scenario="die") for i in range(2)]
        t0 = time.monotonic()
        results = run_sweep(specs, workers=2, mp_context="fork")
        waited = time.monotonic() - t0
        assert waited < 30.0
        assert [r.index for r in results] == [0, 1]
        assert not any(r.ok for r in results)
        assert all("worker failure" in r.error for r in results)

    def test_repeated_serial_runs_are_reproducible(self):
        spec = tiny_grid(n_reps=1)[0]
        assert execute_spec(spec).trace_digest == \
               execute_spec(spec).trace_digest


class TestAggregation:
    def make_result(self, index, label, util):
        return RunResult(index=index, seed=index, label=label, ok=True,
                         wall_s=1.0, summary={"fleet_util_mean": util})

    def test_confidence_interval(self):
        stats = confidence_interval([0.6, 0.7])
        assert stats["n"] == 2
        assert stats["mean"] == pytest.approx(0.65)
        # df=1 t-critical is 12.706; halfwidth = t * std / sqrt(2)
        assert stats["ci95"] == pytest.approx(
            12.706 * stats["std"] / 2 ** 0.5)
        single = confidence_interval([0.5])
        assert single["std"] == 0.0 and single["ci95"] != single["ci95"]  # NaN
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_aggregate_groups_by_label_and_skips_failures(self):
        results = [self.make_result(0, "a", 0.6),
                   self.make_result(1, "a", 0.7),
                   self.make_result(2, "b", 0.5),
                   RunResult(index=3, seed=3, label="a", ok=False,
                             wall_s=0.0, error="boom")]
        agg = aggregate_summaries(results)
        assert agg["a"]["fleet_util_mean"]["n"] == 2
        assert agg["b"]["fleet_util_mean"]["n"] == 1
        report = sweep_report(results)
        assert report["n_failed"] == 1
        assert report["runs"][3]["error"] == "boom"

    def test_t_critical_is_conservative_between_table_rows(self):
        # True two-sided 95% values: df 11 → 2.201, df 31 → 2.040.
        assert t_critical(11) >= 2.201
        assert t_critical(31) >= 2.040
        assert t_critical(7) == 2.365  # tabulated rows are exact

    def test_sweep_report_pools_each_successful_run_once(self):
        def run(index, label, latencies, ok=True):
            return RunResult(index=index, seed=index, label=label, ok=ok,
                             wall_s=1.0, latency_s=latencies)

        results = [run(0, "a", [3.0, 4.0]), run(1, "a", [5.0]),
                   run(2, "b", [7.0]), run(3, "a", [11.0], ok=False)]
        merged = sweep_report(results)["merged_latency"]
        # The failed run's sample is not pooled.
        assert merged["a"] == {"count": 3, "p50_s": 4.0, "p95_s": 5.0,
                               "p99_s": 5.0}
        assert merged["b"] == {"count": 1, "p50_s": 7.0, "p95_s": 7.0,
                               "p99_s": 7.0}
        # Pooling copies: the inputs are untouched, so a second report
        # pools the same samples again, not twice as many.
        assert results[0].latency_s == [3.0, 4.0]
        assert sweep_report(results)["merged_latency"] == merged
