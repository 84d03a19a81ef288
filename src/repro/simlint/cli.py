"""``python -m repro lint`` — the simlint command-line front end.

Exit status is 0 when no error-severity findings remain after
suppression comments and the optional baseline, 1 otherwise (2 for
usage errors).  ``--format json`` emits a stable machine-readable
document; ``--format github`` emits ``::error``/``::warning`` workflow
annotations so CI findings land on the offending diff line.
``--write-baseline`` snapshots the current findings so a new rule can
be introduced without blocking merges on legacy violations, and
``--migrate-baseline`` rewrites an old baseline to the current
fingerprint scheme without widening it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import Baseline
from .engine import Finding, Severity, iter_python_files, lint_paths
from .rules import ALL_RULES, rule_summary, rules_by_id


def default_lint_root() -> Path:
    """The installed ``repro`` package tree (works from any cwd)."""
    return Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & sim-safety static analysis "
                    f"({rule_summary()})")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the repro package tree)")
    parser.add_argument("--format", choices=("text", "json", "github"),
                        default=None,
                        help="output format (default: text); 'github' "
                             "emits workflow ::error annotations")
    parser.add_argument("--json", action="store_true",
                        help="alias for --format json")
    parser.add_argument("--baseline", metavar="FILE",
                        help="mute findings recorded in this baseline file")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write current findings to FILE and exit 0")
    parser.add_argument("--migrate-baseline", metavar="FILE",
                        help="re-key FILE to the current fingerprint "
                             "version, keeping only entries that still "
                             "match a finding, and exit 0")
    parser.add_argument("--select", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--include-foreign", action="store_true",
                        help="run package-scoped rules on files outside "
                             "the repro tree (benchmarks/, tests/)")
    parser.add_argument("--exclude", metavar="SUBSTR", action="append",
                        default=[],
                        help="skip files whose path contains SUBSTR "
                             "(repeatable)")
    return parser


def _select_rules(raw: Optional[str]):
    if not raw:
        return ALL_RULES
    by_id = rules_by_id()
    chosen = []
    for rid in raw.split(","):
        rid = rid.strip().upper()
        if rid not in by_id:
            raise SystemExit(
                f"repro lint: unknown rule {rid!r} "
                f"(have {', '.join(sorted(by_id))})")
        chosen.append(by_id[rid])
    return tuple(chosen)


def _report_text(findings: Sequence[Finding], n_files_hint: str) -> None:
    for finding in findings:
        print(finding.format_text())
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    print(f"simlint: {errors} error(s), {warnings} warning(s) "
          f"{n_files_hint}")


def _report_json(findings: Sequence[Finding], baseline: Optional[str],
                 n_files: int) -> None:
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    doc = {
        "tool": "simlint",
        "version": 1,
        "files_checked": n_files,
        "baseline": baseline,
        "n_errors": errors,
        "n_warnings": len(findings) - errors,
        "findings": [f.to_json() for f in findings],
    }
    print(json.dumps(doc, indent=1))


def _escape_message(value: str) -> str:
    """Escape annotation *message* data per the workflow-command rules."""
    return (value.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def _escape_property(value: str) -> str:
    """Escape annotation *property* values (also ``:`` and ``,``)."""
    return _escape_message(value).replace(":", "%3A").replace(",", "%2C")


def _report_github(findings: Sequence[Finding], n_files: int) -> None:
    """GitHub Actions workflow annotations, one per finding.

    ``::error file=...,line=...::message`` lines attach to the PR diff;
    everything else in the job log is plain text, so the trailing
    summary line stays human-readable.
    """
    for f in findings:
        level = ("error" if f.severity is Severity.ERROR else "warning")
        message = _escape_message(f"{f.message} (hint: {f.fix_hint})")
        print(f"::{level} file={_escape_property(f.path)},"
              f"line={f.line},col={f.col + 1},"
              f"title={_escape_property('simlint ' + f.rule_id)}"
              f"::{message}")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    print(f"simlint: {errors} error(s), {len(findings) - errors} "
          f"warning(s) in {n_files} file(s)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rules = _select_rules(args.select)
    out_format = args.format or ("json" if args.json else "text")
    paths: List[str] = list(args.paths) or [str(default_lint_root())]

    try:
        files = [f for f in iter_python_files(paths)
                 if not any(sub in f.as_posix() for sub in args.exclude)]
        findings = lint_paths(files, rules,
                              include_foreign=args.include_foreign)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(findings).save(args.write_baseline)
        print(f"simlint: wrote {len(findings)} finding(s) to "
              f"{args.write_baseline}")
        return 0

    if args.migrate_baseline:
        try:
            old = Baseline.load(args.migrate_baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro lint: cannot read baseline "
                  f"{args.migrate_baseline}: {exc}", file=sys.stderr)
            return 2
        # Re-fingerprint exactly the findings the old baseline covers;
        # stale entries (no longer matching anything) drop out, which
        # is the ratchet working, not data loss.
        fresh_ids = {id(f) for f in old.filter(findings)}
        covered = [f for f in findings if id(f) not in fresh_ids]
        Baseline.from_findings(covered).save(args.migrate_baseline)
        print(f"simlint: migrated {args.migrate_baseline} to version 2 "
              f"({len(covered)} finding(s) kept, "
              f"{len(old) - len(covered)} stale entr(y|ies) dropped)")
        return 0

    if args.baseline:
        try:
            findings = Baseline.load(args.baseline).filter(findings)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro lint: cannot read baseline {args.baseline}: "
                  f"{exc}", file=sys.stderr)
            return 2

    if out_format == "json":
        _report_json(findings, args.baseline, len(files))
    elif out_format == "github":
        _report_github(findings, len(files))
    else:
        _report_text(findings, f"in {len(files)} file(s)")
    has_errors = any(f.severity is Severity.ERROR for f in findings)
    return 1 if has_errors else 0


if __name__ == "__main__":
    sys.exit(main())
