"""Fixture-driven tests: every rule has true positives, true negatives,
and working suppressions, proven against files on disk (the same code
path ``python -m repro lint`` takes)."""

from pathlib import Path

import pytest

from repro.simlint import ALL_RULES, Severity, lint_paths, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures" / "repro"

#: rule id -> (fixture file, minimum expected findings)
CASES = {
    "SL001": ("core/bad_sl001.py", 4),
    "SL002": ("sim/bad_sl002.py", 6),
    "SL003": ("core/bad_sl003.py", 3),
    "SL004": ("core/bad_sl004.py", 3),
    "SL005": ("sweep/bad_sl005.py", 3),
    "SL006": ("core/bad_sl006.py", 3),
    "SL007": ("core/bad_sl007.py", 4),
    "SL008": ("core/bad_sl008.py", 5),
}

GOOD = {
    "SL001": "core/good_sl001.py",
    "SL002": "sim/good_sl002.py",
    "SL003": "core/good_sl003.py",
    "SL004": "core/good_sl004.py",
    "SL005": "sweep/good_sl005.py",
    "SL006": "core/good_sl006.py",
    "SL007": "core/good_sl007.py",
    "SL008": "core/good_sl008.py",
}

SUPPRESSED = {
    "SL001": "core/suppressed_sl001.py",
    "SL002": "sim/suppressed_sl002.py",
    "SL003": "core/suppressed_sl003.py",
    "SL004": "core/suppressed_sl004.py",
    "SL005": "sweep/suppressed_sl005.py",
    "SL006": "core/suppressed_sl006.py",
    "SL007": "core/suppressed_sl007.py",
    "SL008": "core/suppressed_sl008.py",
}


def findings_for(relpath, rule_id=None):
    found = lint_paths([FIXTURES / relpath], ALL_RULES)
    if rule_id is not None:
        found = [f for f in found if f.rule_id == rule_id]
    return found


class TestTruePositives:
    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_bad_fixture_is_flagged(self, rule_id):
        relpath, n_min = CASES[rule_id]
        found = findings_for(relpath, rule_id)
        assert len(found) >= n_min, (
            f"{rule_id} found only {len(found)} in {relpath}: {found}")

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_findings_carry_location_and_hint(self, rule_id):
        relpath, _ = CASES[rule_id]
        for f in findings_for(relpath, rule_id):
            assert f.line >= 1
            assert f.module.startswith("repro.")
            assert f.fix_hint
            assert rule_id in f.format_text()


class TestTrueNegatives:
    @pytest.mark.parametrize("rule_id", sorted(GOOD))
    def test_good_fixture_is_clean(self, rule_id):
        found = findings_for(GOOD[rule_id], rule_id)
        assert found == [], f"{rule_id} false positives: {found}"

    def test_sim_scoped_rules_skip_foreign_packages(self):
        # The same hazards outside sim-facing packages are out of scope.
        found = findings_for("cli_pkg/out_of_scope.py")
        assert found == []


class TestSuppressions:
    @pytest.mark.parametrize("rule_id", sorted(SUPPRESSED))
    def test_suppression_comment_mutes_finding(self, rule_id):
        found = findings_for(SUPPRESSED[rule_id], rule_id)
        assert found == [], f"{rule_id} ignored suppression: {found}"

    def test_suppression_is_rule_specific(self):
        # disable=SL003 must not hide a different rule on that line.
        from repro.simlint import lint_source
        src = ("import itertools\n"
               "_call_ids = itertools.count(1)  "
               "# simlint: disable=SL003\n")
        found = lint_source(src, "repro/core/x.py", ALL_RULES)
        assert [f.rule_id for f in found] == ["SL001"]


class TestRegistry:
    def test_all_rules_registered(self):
        assert sorted(rules_by_id()) == [
            "SL001", "SL002", "SL003", "SL004", "SL005", "SL006", "SL007",
            "SL008"]

    def test_every_rule_documents_itself(self):
        for rule in ALL_RULES:
            assert rule.title and rule.fix_hint
            assert isinstance(rule.severity, Severity)

    def test_fixture_tree_trips_every_rule(self):
        # The integration property the CLI test relies on: linting the
        # whole fixture tree yields every rule id and a non-zero exit.
        found = lint_paths([FIXTURES], ALL_RULES)
        assert {f.rule_id for f in found} == set(CASES)
        assert any(f.severity is Severity.ERROR for f in found)

