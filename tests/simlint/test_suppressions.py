"""Suppression edge cases: decorator lines, comma lists, and file-level
suppressions under ``--select``.

These pin down behaviors a casual reading of the suppression regexes
would get wrong: a finding on a decorated ``def`` carries the ``def``
line but may be annotated on the decorator; one comment can name many
rules; and ``disable-file`` mutes one rule without hiding the rest from
a ``--select`` run.
"""

import ast
import json

from repro.simlint.cli import main as lint_main
from repro.simlint.engine import Rule, Severity, lint_source


class _DecoratedDefRule(Rule):
    """Synthetic rule: flags every decorated function definition.

    Real rules anchor findings on whatever node they inspect; this one
    exists purely to produce a finding whose line is a ``def`` with
    decorators above it, so the companion-line suppression path is
    exercised in isolation.
    """

    id = "SL900"
    severity = Severity.ERROR
    title = "synthetic decorated-def rule"
    fix_hint = "n/a (test-only rule)"
    packages = None

    def check(self, ctx):
        for node in ctx.walk():
            if isinstance(node, ast.FunctionDef) and node.decorator_list:
                yield ctx.finding(self, node, "decorated def")


class _SecondRule(_DecoratedDefRule):
    """Same trigger, different id — for comma-list interplay tests."""

    id = "SL901"


DECORATED = """\
import functools


@functools.lru_cache(maxsize=None){dec_comment}
def handler(x):{def_comment}
    return x
"""


def _decorated(dec_comment="", def_comment=""):
    source = DECORATED.format(dec_comment=dec_comment,
                              def_comment=def_comment)
    return lint_source(source, "repro/core/mod.py", (_DecoratedDefRule(),),
                       module="repro.core.mod")


class TestDecoratedDefSuppression:
    def test_unsuppressed_finding_lands_on_the_def_line(self):
        findings = _decorated()
        assert [f.line for f in findings] == [5]  # the def, not @

    def test_comment_on_the_def_line_suppresses(self):
        assert _decorated(def_comment="  # simlint: disable=SL900") == []

    def test_comment_on_the_decorator_line_also_suppresses(self):
        # The natural annotation spot is the decorator the reader sees
        # first; companion-line matching honors it.
        assert _decorated(dec_comment="  # simlint: disable=SL900") == []

    def test_wrong_rule_id_on_decorator_does_not_suppress(self):
        findings = _decorated(dec_comment="  # simlint: disable=SL901")
        assert len(findings) == 1


class TestCommaLists:
    RULES = (_DecoratedDefRule(), _SecondRule())

    def _lint(self, comment):
        return lint_source(DECORATED.format(dec_comment="",
                                            def_comment=comment),
                           "repro/core/mod.py", self.RULES,
                           module="repro.core.mod")

    def test_both_rules_fire_without_suppression(self):
        assert sorted(f.rule_id for f in self._lint("")) == \
            ["SL900", "SL901"]

    def test_comma_list_suppresses_every_named_rule(self):
        assert self._lint("  # simlint: disable=SL900,SL901") == []

    def test_spaces_around_commas_are_tolerated(self):
        assert self._lint("  # simlint: disable=SL900 , sl901") == []

    def test_partial_list_leaves_the_other_rule(self):
        findings = self._lint("  # simlint: disable=SL900")
        assert [f.rule_id for f in findings] == ["SL901"]

    def test_trailing_justification_after_dashes_is_ignored(self):
        comment = "  # simlint: disable=SL900,SL901 -- test harness"
        assert self._lint(comment) == []


WALLCLOCK = """\
{header}import time


def stamp():
    return time.time()
"""


class TestDisableFileWithSelect:
    """``disable-file=`` interacts with ``--select`` per rule, not per
    file: muting SL002 must not hide the file from other selected
    rules, and selecting around the suppression must not resurrect it.
    """

    def _write(self, tmp_path, header=""):
        mod = tmp_path / "repro" / "sim"
        mod.mkdir(parents=True, exist_ok=True)
        target = mod / "clocky.py"
        target.write_text(WALLCLOCK.format(header=header),
                          encoding="utf-8")
        return target

    def test_selected_rule_fires_without_suppression(self, tmp_path):
        target = self._write(tmp_path)
        assert lint_main([str(target), "--select", "SL002"]) == 1

    def test_disable_file_mutes_the_selected_rule(self, tmp_path, capsys):
        target = self._write(
            tmp_path, header="# simlint: disable-file=SL002\n")
        rc = lint_main([str(target), "--select", "SL002", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["findings"] == []

    def test_disable_file_of_unselected_rule_changes_nothing(
            self, tmp_path):
        target = self._write(
            tmp_path, header="# simlint: disable-file=SL001\n")
        assert lint_main([str(target), "--select", "SL002"]) == 1

    def test_full_run_still_applies_file_suppression(self, tmp_path,
                                                     capsys):
        target = self._write(
            tmp_path, header="# simlint: disable-file=SL002\n")
        rc = lint_main([str(target), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert all(f["rule"] != "SL002" for f in doc["findings"])
