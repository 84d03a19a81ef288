"""Unit tests for simlint's whole-program function index and call
resolution (:mod:`repro.simlint.callgraph`), which the typestate rules
build their interprocedural summaries on."""

import ast

from repro.simlint.callgraph import ProjectIndex
from repro.simlint.engine import LintContext, Project

MOD = "repro/core/callmod.py"


class TestCallgraph:
    SRC = (
        "def helper(x):\n"
        "    return x\n"
        "\n"
        "class Platform:\n"
        "    def outer(self):\n"
        "        def inner(y):\n"
        "            return y\n"
        "        inner(1)\n"
        "        helper(2)\n"
        "        self.method(3)\n"
        "    def method(self, z):\n"
        "        return z\n"
    )

    def _index(self):
        return ProjectIndex(Project([LintContext(self.SRC, MOD)]))

    def test_functions_indexed_with_qualnames(self):
        quals = set(self._index().functions)
        assert "repro.core.callmod:helper" in quals
        assert "repro.core.callmod:Platform.outer" in quals
        assert any(q.endswith("outer.<locals>.inner") for q in quals)

    def test_resolution_kinds(self):
        index = self._index()
        outer = index.functions["repro.core.callmod:Platform.outer"]
        calls = [n for n in ast.walk(outer.node) if isinstance(n, ast.Call)]
        resolved = {index.resolve_call(outer, c).name
                    for c in calls if index.resolve_call(outer, c)}
        assert resolved == {"inner", "helper", "method"}

    def test_unresolvable_call_is_none(self):
        index = self._index()
        call = ast.parse("unknown_fn()").body[0].value
        outer = index.functions["repro.core.callmod:Platform.outer"]
        assert index.resolve_call(outer, call) is None
