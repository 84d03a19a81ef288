"""The simlint rule engine: parse once, walk many, suppress precisely.

A :class:`LintContext` wraps one parsed module with everything a rule
needs — the AST, a parent map for scope questions, the resolved import
table for "what does this call actually name", and the raw source lines
for suppression comments.  Each :class:`Rule` gets the same context, so
the file is read and parsed exactly once however many rules run.

Adding a rule is ~30 lines: subclass :class:`Rule`, set ``id`` /
``severity`` / ``packages``, implement :meth:`Rule.check` as a generator
over ``ctx.walk()``, and append an instance to
:data:`repro.simlint.rules.ALL_RULES` (with fixtures in
``tests/simlint/fixtures``).
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union


class Severity(enum.Enum):
    """How a finding affects the exit code: errors gate, warnings inform."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: Severity
    path: str
    module: str
    line: int
    col: int
    message: str
    fix_hint: str

    def format_text(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.severity.value} {self.rule_id}: {self.message}\n"
                f"    hint: {self.fix_hint}")

    def to_json(self) -> Dict[str, object]:
        return {"rule": self.rule_id, "severity": self.severity.value,
                "path": self.path, "module": self.module, "line": self.line,
                "col": self.col, "message": self.message,
                "fix_hint": self.fix_hint}


#: ``# simlint: disable=SL001[,SL002]`` — suppress on this line only.
_LINE_SUPPRESS = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+?)(?:\s*--.*)?$")
#: ``# simlint: disable-file=SL003`` — suppress for the whole file.
_FILE_SUPPRESS = re.compile(
    r"#\s*simlint:\s*disable-file=([A-Za-z0-9_,\s]+?)(?:\s*--.*)?$")


def _parse_rule_list(raw: str) -> frozenset:
    return frozenset(part.strip().upper() for part in raw.split(",")
                     if part.strip())


class LintContext:
    """One module, parsed once, shared by every rule.

    Attributes
    ----------
    path:
        Display path of the file (as given to the linter).
    module:
        Dotted module name inferred from the path (``repro.core.call``);
        files outside a ``repro`` tree get a best-effort stem name.
    package:
        First package segment under ``repro`` (``"core"`` for
        ``repro.core.call``, ``""`` for top-level modules like
        ``repro.cli``, ``None`` when the file is not under ``repro``).
    imports:
        Local name → imported module (``{"it": "itertools"}``).
    from_imports:
        Local name → dotted origin (``{"count": "itertools.count"}``).
    """

    def __init__(self, source: str, path: str,
                 module: Optional[str] = None) -> None:
        self.path = path
        self.source_lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.module = module if module is not None else _module_for_path(path)
        self.package = _package_of(self.module)

        self._parents: Dict[int, ast.AST] = {}
        self._nodes: List[ast.AST] = []
        for node in ast.walk(self.tree):
            self._nodes.append(node)
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node

        self.imports: Dict[str, str] = {}
        self.from_imports: Dict[str, str] = {}
        for node in self._nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or
                                 alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

        self.line_suppressions: Dict[int, frozenset] = {}
        self.file_suppressions: frozenset = frozenset()
        for lineno, line in enumerate(self.source_lines, start=1):
            m = _FILE_SUPPRESS.search(line)
            if m:
                self.file_suppressions |= _parse_rule_list(m.group(1))
                continue
            m = _LINE_SUPPRESS.search(line)
            if m:
                self.line_suppressions[lineno] = _parse_rule_list(m.group(1))

        # A finding on a decorated def/class carries the ``def`` line
        # (py3.8+ semantics), but the natural place to annotate is often
        # the decorator above it — honor suppressions on either.
        self._companion_lines: Dict[int, Tuple[int, ...]] = {}
        for node in self._nodes:
            decorators = getattr(node, "decorator_list", None)
            if decorators:
                self._companion_lines[node.lineno] = tuple(
                    d.lineno for d in decorators)

    # -- scope helpers ---------------------------------------------------
    def walk(self) -> Sequence[ast.AST]:
        """Every node of the module, in ``ast.walk`` order (cached)."""
        return self._nodes

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """Innermost function/lambda containing ``node``, if any."""
        cur = self.parent(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                return cur
            cur = self.parent(cur)
        return None

    def is_module_or_class_level(self, node: ast.AST) -> bool:
        """True when no function/lambda encloses ``node`` (shared state)."""
        return self.enclosing_function(node) is None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        cur = self.parent(node)
        while cur is not None:
            if isinstance(cur, ast.ClassDef):
                return cur
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return None
            cur = self.parent(cur)
        return None

    # -- name resolution -------------------------------------------------
    def resolve(self, node: ast.AST) -> Tuple[str, bool]:
        """Dotted name of an expression plus whether its root is imported.

        ``time.time`` under ``import time`` resolves to
        ``("time.time", True)``; ``self.sim.now`` resolves to
        ``("self.sim.now", False)``.  The boolean keeps rules from
        flagging local variables that merely shadow module names.
        """
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return "", False
        root = cur.id
        if root in self.from_imports:
            resolved = self.from_imports[root]
            known = True
        elif root in self.imports:
            resolved = self.imports[root]
            known = True
        else:
            resolved = root
            known = False
        parts.append(resolved)
        return ".".join(reversed(parts)), known

    # -- suppression -----------------------------------------------------
    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rid = rule_id.upper()
        if rid in self.file_suppressions or "ALL" in self.file_suppressions:
            return True
        for lineno in (line,) + self._companion_lines.get(line, ()):
            on_line = self.line_suppressions.get(lineno, frozenset())
            if rid in on_line or "ALL" in on_line:
                return True
        return False

    # -- finding factory -------------------------------------------------
    def finding(self, rule: "Rule", node: ast.AST,
                message: str) -> Finding:
        return Finding(rule_id=rule.id, severity=rule.severity,
                       path=self.path, module=self.module,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message, fix_hint=rule.fix_hint)


class Rule:
    """One checkable clause of the determinism contract.

    Subclasses set the class attributes and implement :meth:`check`;
    ``packages`` limits a rule to ``repro`` subpackages (``frozenset``
    of first segments, ``""`` meaning top-level modules); ``None``
    applies everywhere, including files outside ``repro``.
    """

    id: str = "SL000"
    severity: Severity = Severity.ERROR
    title: str = ""
    fix_hint: str = ""
    packages: Optional[frozenset] = None

    def applies_to(self, ctx: LintContext,
                   include_foreign: bool = False) -> bool:
        if self.packages is None:
            return True
        if ctx.package is None:
            # Files outside the repro tree (benchmarks/, tests/ helpers)
            # are normally out of scope; ``--include-foreign`` opts the
            # explicitly selected rules into them.
            return include_foreign
        return ctx.package in self.packages

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


def _module_for_path(path: str) -> str:
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    # Use the *last* "repro" segment so fixture trees shaped like
    # tests/simlint/fixtures/repro/core/x.py lint as repro.core.x.
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return ".".join(parts[i:])
    return parts[-1] if parts else ""


def _package_of(module: str) -> Optional[str]:
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) <= 2:
        return ""          # repro.cli, repro.scenarios, repro itself
    return parts[1]        # repro.core.call -> "core"


def _syntax_error_finding(exc: SyntaxError, path: str,
                          module: Optional[str]) -> Finding:
    return Finding(rule_id="SL000", severity=Severity.ERROR, path=path,
                   module=module or "", line=exc.lineno or 1,
                   col=(exc.offset or 1) - 1,
                   message=f"syntax error: {exc.msg}",
                   fix_hint="simlint needs parseable Python")


def _check(ctx: LintContext, rules: Sequence[Rule],
           include_foreign: bool = False) -> Iterator[Finding]:
    """Every applicable rule on one module, suppressions applied."""
    for rule in rules:
        if not rule.applies_to(ctx, include_foreign):
            continue
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding.rule_id, finding.line):
                yield finding


def _by_location(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))


def lint_source(source: str, path: str, rules: Sequence[Rule],
                module: Optional[str] = None) -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    try:
        ctx = LintContext(source, path, module=module)
    except SyntaxError as exc:
        return [_syntax_error_finding(exc, path, module)]
    return _by_location(_check(ctx, rules))


def iter_python_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of .py files."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(q for q in p.rglob("*.py") if q.is_file())
        elif p.suffix == ".py":
            yield p
        else:
            raise FileNotFoundError(f"not a Python file or directory: {p}")


def lint_paths(paths: Iterable[Union[str, Path]],
               rules: Sequence[Rule],
               include_foreign: bool = False) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` with ``rules``.

    ``include_foreign`` extends package-scoped rules to files outside
    the ``repro`` tree (the benchmarks/tests lint lane).
    """
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        try:
            ctx = LintContext(source, str(file))
        except SyntaxError as exc:
            findings.append(_syntax_error_finding(exc, str(file), None))
            continue
        findings.extend(_check(ctx, rules, include_foreign))
    return _by_location(findings)
