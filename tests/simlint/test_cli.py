"""CLI and baseline tests, plus the dogfood gate: the real tree at HEAD
must lint clean."""

import json
from pathlib import Path

import repro.cli
from repro.simlint import ALL_RULES, Baseline, Severity, lint_paths
from repro.simlint.cli import default_lint_root, main as lint_main

FIXTURES = Path(__file__).parent / "fixtures" / "repro"


class TestExitCodes:
    def test_fixture_tree_fails(self):
        assert lint_main([str(FIXTURES)]) == 1

    def test_clean_file_passes(self, capsys):
        assert lint_main([str(FIXTURES / "core" / "good_sl001.py")]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_warnings_alone_do_not_gate(self):
        # SL003/SL004 are warnings: they print but exit 0.
        rc = lint_main([str(FIXTURES / "core" / "bad_sl003.py"),
                        "--select", "SL003"])
        assert rc == 0

    def test_missing_path_is_usage_error(self):
        assert lint_main(["does/not/exist.py"]) == 2

    def test_unknown_rule_is_usage_error(self):
        try:
            lint_main([str(FIXTURES), "--select", "SL999"])
        except SystemExit as exc:
            assert "SL999" in str(exc)
        else:
            raise AssertionError("expected SystemExit")


class TestJsonOutput:
    def test_document_shape(self, capsys):
        lint_main([str(FIXTURES), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "simlint"
        assert doc["version"] == 1
        assert doc["files_checked"] > 10
        assert doc["n_errors"] > 0
        sample = doc["findings"][0]
        assert set(sample) == {"rule", "severity", "path", "module",
                               "line", "col", "message", "fix_hint"}


class TestGithubFormat:
    def test_annotations_and_summary_line(self, capsys):
        rc = lint_main([str(FIXTURES / "core" / "bad_sl001.py"),
                        "--format", "github"])
        out = capsys.readouterr().out
        assert rc == 1
        first = out.splitlines()[0]
        assert first.startswith("::error file=")
        assert ",line=" in first and ",col=" in first
        assert "title=simlint SL001::" in first
        assert "(hint: " in first
        assert "error(s)" in out.splitlines()[-1]

    def test_warning_severity_maps_to_warning_level(self, capsys):
        lint_main([str(FIXTURES / "core" / "bad_sl003.py"),
                   "--select", "SL003", "--format", "github"])
        assert "::warning file=" in capsys.readouterr().out

    def test_newlines_and_percents_are_escaped(self, capsys):
        # Workflow commands are line-oriented: any %, CR, or LF in the
        # message must be %xx-escaped or the annotation truncates.
        lint_main([str(FIXTURES), "--format", "github"])
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("::"):
                assert "\r" not in line
                command, _, message = line.partition("::")
                assert "\n" not in message

    def test_json_flag_is_an_alias_for_format_json(self, capsys):
        lint_main([str(FIXTURES / "core" / "good_sl001.py"), "--json"])
        alias = capsys.readouterr().out
        lint_main([str(FIXTURES / "core" / "good_sl001.py"),
                   "--format", "json"])
        assert json.loads(alias) == json.loads(capsys.readouterr().out)


class TestBaselineMigration:
    def test_v1_baseline_rekeys_to_v2(self, tmp_path, capsys):
        target = str(FIXTURES / "core" / "bad_sl001.py")
        findings = lint_paths([target], ALL_RULES)
        # Hand-build a v1 (module-keyed) baseline covering everything.
        v1 = {"version": 1, "findings": [
            {"rule": f.rule_id, "module": f.module,
             "text": Path(f.path).read_text().splitlines()[
                 f.line - 1].strip(), "count": 1}
            for f in findings]}
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(v1), encoding="utf-8")

        assert lint_main([target, "--migrate-baseline",
                          str(baseline)]) == 0
        capsys.readouterr()
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        assert doc["version"] == 2
        assert len(doc["findings"]) == len(findings)
        assert all("path" in e and "module" not in e
                   for e in doc["findings"])
        # The migrated baseline still mutes everything.
        assert lint_main([target, "--baseline", str(baseline)]) == 0

    def test_stale_entries_are_dropped(self, tmp_path, capsys):
        v1 = {"version": 1, "findings": [
            {"rule": "SL001", "module": "repro.gone",
             "text": "x = itertools.count()", "count": 3}]}
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(v1), encoding="utf-8")
        rc = lint_main([str(FIXTURES / "core" / "good_sl001.py"),
                        "--migrate-baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 stale" in out
        assert json.loads(baseline.read_text())["findings"] == []

    def test_v2_fingerprints_survive_layout_moves(self, tmp_path):
        # src/repro/... and a bare repro/... checkout fingerprint alike:
        # the path is normalized from its last repro/ segment.
        src = FIXTURES / "core" / "bad_sl001.py"
        for prefix in ("src", "elsewhere/deeper"):
            moved = tmp_path / prefix / "repro" / "core"
            moved.mkdir(parents=True)
            (moved / "bad_sl001.py").write_text(src.read_text(),
                                                encoding="utf-8")
        a = Baseline.from_findings(lint_paths(
            [tmp_path / "src" / "repro" / "core" / "bad_sl001.py"],
            ALL_RULES))
        moved = lint_paths(
            [tmp_path / "elsewhere" / "deeper" / "repro" / "core" /
             "bad_sl001.py"], ALL_RULES)
        assert a.filter(moved) == []


class TestForeignScope:
    def _harness(self, tmp_path, name="bench_thing.py"):
        # No repro/ path segment: package-scoped rules see it only
        # under --include-foreign.
        target = tmp_path / "benchmarks" / name
        target.parent.mkdir(exist_ok=True)
        target.write_text("import time\n\n\ndef stamp():\n"
                          "    return time.time()\n", encoding="utf-8")
        return target

    def test_foreign_file_is_skipped_by_default(self, tmp_path):
        target = self._harness(tmp_path)
        assert lint_main([str(target), "--select", "SL002"]) == 0

    def test_include_foreign_extends_scoped_rules(self, tmp_path):
        target = self._harness(tmp_path)
        rc = lint_main([str(target), "--select", "SL002",
                        "--include-foreign"])
        assert rc == 1

    def test_exclude_substring_drops_files(self, tmp_path, capsys):
        self._harness(tmp_path)
        self._harness(tmp_path, name="keep_me.py")
        rc = lint_main([str(tmp_path / "benchmarks"), "--select",
                        "SL002", "--include-foreign", "--exclude",
                        "bench_thing", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["files_checked"] == 1
        assert all("bench_thing" not in f["path"]
                   for f in doc["findings"])

    def test_scoped_lane_is_green_at_head(self, capsys):
        """ISSUE acceptance: the committed scoped baseline covers every
        SL002/SL004 finding in benchmarks/ and tests/ at HEAD."""
        repo = Path(__file__).resolve().parents[2]
        rc = lint_main([str(repo / "benchmarks"), str(repo / "tests"),
                        "--select", "SL002,SL004", "--include-foreign",
                        "--exclude", "tests/simlint/fixtures",
                        "--baseline",
                        str(repo / "simlint_scoped_baseline.json")])
        assert rc == 0, capsys.readouterr().out


class TestDispatch:
    def test_repro_cli_routes_lint_with_flags(self, capsys):
        # Regression: argparse REMAINDER mangles a leading --json
        # (bpo-17050), so repro.cli dispatches 'lint' before parsing.
        rc = repro.cli.main(
            ["lint", "--json", str(FIXTURES / "core" / "good_sl001.py")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n_errors"] == 0


class TestBaseline:
    def test_baseline_roundtrip_mutes_everything(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        lint_main([str(FIXTURES), "--write-baseline", str(baseline)])
        capsys.readouterr()
        rc = lint_main([str(FIXTURES), "--baseline", str(baseline),
                        "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["n_errors"] == 0 and doc["n_warnings"] == 0
        assert doc["baseline"] == str(baseline)

    def test_new_finding_escapes_baseline(self, tmp_path):
        findings = lint_paths([FIXTURES / "core" / "bad_sl001.py"],
                              ALL_RULES)
        base = Baseline.from_findings(findings[:-1])
        fresh = base.filter(findings)
        assert fresh == [findings[-1]]

    def test_fingerprints_survive_line_renumbering(self, tmp_path):
        # Baselines key on (rule, module, stripped text), not line
        # numbers: inserting lines above must not invalidate them.
        src = FIXTURES / "core" / "bad_sl001.py"
        moved = tmp_path / "repro" / "core"
        moved.mkdir(parents=True)
        target = moved / "bad_sl001.py"
        target.write_text("# pad\n# pad\n" + src.read_text(),
                          encoding="utf-8")
        base = Baseline.from_findings(lint_paths([src], ALL_RULES))
        assert base.filter(lint_paths([target], ALL_RULES)) == []

    def test_corrupt_baseline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}', encoding="utf-8")
        assert lint_main([str(FIXTURES), "--baseline", str(bad)]) == 2


class TestDogfood:
    def test_real_tree_has_zero_error_findings(self):
        """ISSUE acceptance: `python -m repro lint` on src/repro at HEAD
        exits 0 — the codebase satisfies its own determinism contract."""
        findings = lint_paths([default_lint_root()], ALL_RULES)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert errors == [], "\n".join(f.format_text() for f in errors)

    def test_default_root_is_the_repro_package(self):
        assert default_lint_root().name == "repro"
        assert (default_lint_root() / "simlint").is_dir()

