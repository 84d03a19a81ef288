"""Whole-program function index and call resolution for simlint.

The interprocedural typestate rules (SL013–SL015) need to answer
"which function does this call site name, and what does that function
do with each argument?" across every module of a lint run.  This module
provides the structural half: a :class:`ProjectIndex` over all parsed
:class:`~repro.simlint.engine.LintContext` objects (every ``def`` —
top-level, method, or nested — becomes a :class:`FunctionInfo`), plus
best-effort, deliberately conservative call resolution:

* ``name(...)``        → nested def in the caller, else a top-level def
  in the same module, else a ``from``-imported top-level def of another
  indexed module;
* ``self.m(...)``      → method ``m`` of the caller's own class (base
  classes are *not* chased — unresolved calls report nothing);
* ``mod.f(...)``       → top-level ``f`` of the imported module when
  that module is part of the run.

Unresolvable calls resolve to ``None``; the typestate layer treats
them as opaque (no findings), so imprecision here can only cause false
negatives, never false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .engine import LintContext, Project

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One ``def`` anywhere in the project, with resolution context."""

    qualname: str                      #: ``module:Class.method`` form
    name: str
    node: FunctionNode
    ctx: LintContext
    class_name: Optional[str]          #: enclosing class, if a method
    params: Tuple[str, ...]            #: positional parameter names
    #: Nested ``def`` name → FunctionInfo, for local-call resolution.
    nested: Dict[str, "FunctionInfo"] = field(default_factory=dict)
    parent: Optional["FunctionInfo"] = None

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


def _positional_params(node: FunctionNode) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names.extend(a.arg for a in args.args)
    return tuple(names)


class ProjectIndex:
    """Index of every function in a :class:`Project`, plus call edges."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        #: module → top-level def name → info
        self._top_level: Dict[str, Dict[str, FunctionInfo]] = {}
        #: (module, class) → method name → info
        self._methods: Dict[Tuple[str, str], Dict[str, FunctionInfo]] = {}
        #: id(def node) → info, for walking from AST nodes.
        self._by_node: Dict[int, FunctionInfo] = {}
        for ctx in project.contexts:
            self._index_module(ctx)

    # -- construction ----------------------------------------------------
    def _index_module(self, ctx: LintContext) -> None:
        module = ctx.module
        self._top_level.setdefault(module, {})
        for node in ctx.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            enclosing = ctx.enclosing_function(node)
            cls = ctx.enclosing_class(node)
            class_name = cls.name if cls is not None else None
            parent = (self._by_node.get(id(enclosing))
                      if enclosing is not None else None)
            if parent is not None:
                qual = f"{parent.qualname}.<locals>.{node.name}"
            elif class_name is not None:
                qual = f"{module}:{class_name}.{node.name}"
            else:
                qual = f"{module}:{node.name}"
            info = FunctionInfo(
                qualname=qual, name=node.name, node=node, ctx=ctx,
                class_name=class_name if parent is None else None,
                params=_positional_params(node), parent=parent)
            self.functions[qual] = info
            self._by_node[id(node)] = info
            if parent is not None:
                parent.nested[node.name] = info
            elif class_name is not None:
                self._methods.setdefault(
                    (module, class_name), {})[node.name] = info
            else:
                self._top_level[module][node.name] = info

    # -- lookup ----------------------------------------------------------
    def all_functions(self) -> List[FunctionInfo]:
        """Deterministic (qualname-sorted) list of every function."""
        return [self.functions[q] for q in sorted(self.functions)]

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> Optional[FunctionInfo]:
        """Best-effort callee of ``call`` as written inside ``caller``."""
        fn = call.func
        ctx = caller.ctx
        if isinstance(fn, ast.Name):
            # Nested defs shadow module-level ones, mirroring Python.
            cur: Optional[FunctionInfo] = caller
            while cur is not None:
                if fn.id in cur.nested:
                    return cur.nested[fn.id]
                cur = cur.parent
            local = self._top_level.get(ctx.module, {}).get(fn.id)
            if local is not None:
                return local
            origin = ctx.from_imports.get(fn.id)
            if origin is not None:
                module, _, name = origin.rpartition(".")
                return self._top_level.get(module, {}).get(name)
            return None
        if isinstance(fn, ast.Attribute):
            value = fn.value
            if isinstance(value, ast.Name) and value.id == "self":
                cls = self._enclosing_class_name(caller)
                if cls is None:
                    return None
                return self._methods.get((ctx.module, cls), {}).get(fn.attr)
            if isinstance(value, ast.Name) and value.id in ctx.imports:
                module = ctx.imports[value.id]
                return self._top_level.get(module, {}).get(fn.attr)
        return None

    @staticmethod
    def _enclosing_class_name(info: FunctionInfo) -> Optional[str]:
        cur: Optional[FunctionInfo] = info
        while cur is not None:
            if cur.class_name is not None:
                return cur.class_name
            cur = cur.parent
        return None


def project_index(project: Project) -> ProjectIndex:
    """The (cached) :class:`ProjectIndex` of ``project``."""
    index = project.cache.get("callgraph.index")
    if index is None:
        index = ProjectIndex(project)
        project.cache["callgraph.index"] = index
    return index  # type: ignore[return-value]
