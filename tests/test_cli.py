"""Tests for the `python -m repro` CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core import LocalityParams
from repro.scenarios import build_dayrun


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.hours == 6.0
        assert args.rate == 4.0
        assert not args.no_time_shifting

    def test_simulate_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--hours", "2", "--no-time-shifting",
             "--regions", "3"])
        assert args.hours == 2.0
        assert args.no_time_shifting
        assert args.regions == 3

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.runs == 4
        assert args.master_seed == 7
        assert args.workers == 1
        assert args.ablate is None
        assert not args.json

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--runs", "2", "--workers", "4",
             "--ablate", "time-shifting", "--ablate", "locality-groups",
             "--json"])
        assert args.runs == 2
        assert args.workers == 4
        assert args.ablate == ["time-shifting", "locality-groups"]
        assert args.json

    def test_sweep_rejects_unknown_ablation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--ablate", "nonsense"])

    @pytest.mark.parametrize("argv", [
        ["simulate", "--hours", "0"],
        ["simulate", "--hours", "-1"],
        ["simulate", "--hours", "nan"],
        ["simulate", "--rate", "-2"],
        ["simulate", "--functions", "2"],
        ["simulate", "--regions", "0"],
        ["simulate", "--target-utilization", "0"],
        ["simulate", "--target-utilization", "1"],
        ["simulate", "--locality-groups", "0"],
        ["simulate", "--functions", "many"],
        ["sweep", "--hours", "0"],
        ["sweep", "--rate", "0"],
        ["sweep", "--functions", "0"],
        ["sweep", "--regions", "0"],
        ["sweep", "--runs", "0"],
        ["sweep", "--workers", "0"],
        ["profile", "--hours", "-1"],
        ["simulate", "--peak-to-trough", "-1"],
        ["simulate", "--peak-to-trough", "1.5"],
        ["simulate", "--opportunistic", "1.5"],
        ["simulate", "--opportunistic", "-0.1"],
        ["profile", "--top", "-3"],
        ["profile", "--top", "0"],
        ["lifecycle", "--execute-s", "-5"],
        ["lifecycle", "--execute-s", "nan"],
        ["growth", "--years", "-2"],
        ["growth", "--years", "0"],
    ])
    def test_out_of_range_flag_is_a_usage_error(self, capsys, argv):
        # Exit 2 with argparse's usage message naming the flag, before
        # anything is built — never a traceback from inside the model.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {argv[1]}" in err

    def test_lint_is_an_unknown_subcommand(self, capsys):
        # A stale script that still calls `repro lint` fails loudly.
        with pytest.raises(SystemExit) as exc:
            main(["lint"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'lint'" in err


class TestCommands:
    def test_lifecycle_prints_tables(self, capsys):
        assert main(["lifecycle"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "XFaaS" in out
        assert "billable" in out

    def test_growth_prints_factor(self, capsys):
        assert main(["growth", "--years", "5"]) == 0
        out = capsys.readouterr().out
        assert "52.0x" in out or "5" in out
        assert "Figure 3" in out

    def test_simulate_smoke(self, capsys):
        # A tiny run: 0.5 h, low rate, 3 regions.
        assert main(["simulate", "--hours", "0.5", "--rate", "1.5",
                     "--regions", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "received per minute" in out
        assert "FLEET MEAN" in out
        assert "completed" in out

    def test_simulate_json(self, capsys):
        import json
        assert main(["simulate", "--hours", "0.5", "--rate", "1.5",
                     "--regions", "3", "--seed", "1", "--json"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out)
        assert summary["config"]["hours"] == 0.5
        assert summary["submitted"] > 0
        assert summary["completed"] > 0
        assert len(summary["trace_digest"]) == 64
        assert len(summary["metrics_digest"]) == 64
        assert len(summary["region_utilization"]) == 3
        assert set(summary["latency_s"]) == {"p50", "p95", "p99"}

    @pytest.mark.parametrize("flags, overrides", [
        ([], {}),
        (["--no-time-shifting", "--locality-groups", "1"],
         {"time_shifting": False, "locality_groups": False,
          "locality": LocalityParams(n_groups=1)}),
    ])
    def test_simulate_runs_the_shared_dayrun(self, capsys, flags, overrides):
        # simulate is a front end to build_dayrun: the same model
        # arguments give the same trace and metrics.
        import json
        assert main(["simulate", "--hours", "0.25", "--rate", "1.5",
                     "--regions", "2", "--functions", "16", "--seed", "3",
                     "--peak-to-trough", "5", "--opportunistic", "0.4",
                     "--target-utilization", "0.6", "--json"] + flags) == 0
        summary = json.loads(capsys.readouterr().out)
        run = build_dayrun(seed=3, total_rate=1.5, horizon_s=900.0,
                           n_functions=16, n_regions=2, peak_to_trough=5.0,
                           opportunistic_fraction=0.4,
                           target_utilization=0.6, overrides=overrides)
        assert summary["trace_digest"] == run.platform.traces.digest()
        assert summary["metrics_digest"] == run.platform.metrics.digest()
        assert summary["submitted"] == run.platform.submitted_count

    def test_simulate_digest_gates_fail_closed(self, capsys):
        import json
        argv = ["simulate", "--hours", "0.25", "--rate", "1.5",
                "--regions", "2", "--functions", "16", "--seed", "3"]
        assert main(argv + ["--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        trace, metrics = summary["trace_digest"], summary["metrics_digest"]
        assert main(argv + ["--expect-digest", trace,
                            "--expect-metrics-digest", metrics]) == 0
        assert "DIGEST MISMATCH" not in capsys.readouterr().err
        # A wrong metrics digest fails the run, in text and JSON mode.
        assert main(argv + ["--expect-metrics-digest", "0" * 64]) == 1
        assert "DIGEST MISMATCH (metrics)" in capsys.readouterr().err
        assert main(argv + ["--json", "--expect-digest", "0" * 64]) == 1
        err = capsys.readouterr().err
        assert "DIGEST MISMATCH (trace)" in err and trace in err

    def test_profile_metrics_digest_printed_and_gated(self, capsys):
        import json

        from .test_determinism_trace import (
            QUICK_DAYRUN_DIGEST,
            QUICK_DAYRUN_METRICS_DIGEST,
        )
        argv = ["profile", "--quick", "--json",
                "--expect-digest", QUICK_DAYRUN_DIGEST]
        assert main(argv + ["--expect-metrics-digest",
                            QUICK_DAYRUN_METRICS_DIGEST]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metrics_digest"] == QUICK_DAYRUN_METRICS_DIGEST
        assert main(argv + ["--expect-metrics-digest", "0" * 64]) == 1
        err = capsys.readouterr().err
        assert "DIGEST MISMATCH (metrics)" in err
        assert "DIGEST MISMATCH (trace)" not in err

    def test_alloc_profile_reports_no_cyclic_garbage(self, capsys):
        assert main(["profile", "--hours", "0.05", "--alloc",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "cyclic garbage after the run: 0 objects\n" in out

    def test_sweep_smoke_table_and_json(self, capsys):
        import json
        argv = ["sweep", "--runs", "2", "--hours", "0.25", "--rate", "1.5",
                "--functions", "20", "--regions", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "fleet_util_mean" in out
        assert main(argv + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_runs"] == 2 and report["n_failed"] == 0
        assert all(r["ok"] for r in report["runs"])
        assert "baseline" in report["aggregates"]
