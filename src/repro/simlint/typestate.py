"""Typestate (protocol FSM) analysis for the lifecycle rules SL013–SL015.

This module answers "what state is this value *in*?".  A
:class:`Protocol` declares a lifecycle as data — states, transitions,
error states — and the engine tracks the abstract state of every
tracked value through assignments, aliases, branches (joining state
sets at merge points), loops, and across calls via per-function
summaries built on :mod:`repro.simlint.callgraph`:

* **lease** (SL014) — ``DurableQ.poll`` leases calls; each must settle
  exactly once (``polled → acked | nacked``), and ``extend_lease`` is
  legal only while ``polled``.
* **handle** (SL013) — ``sim.call_after/call_at/every`` return
  one-shot handles (``armed → cancelled``); no second ``cancel``, no
  re-arm, no silently dropped armed binding.
* **snapshot** (SL015) — ``MetricsRegistry.snapshot()`` captures; a
  snapshot pairs with at most one ``merge``/``from_snapshot``, the
  source registry must not be mutated while a capture awaits its merge,
  and a registry never merges into itself.

**Abstract domain.**  Each tracked value is a *state set* (may-states:
``{"acked", "polled"}`` after an ``if`` that settles one branch only).
Joins are set unions; an event checks every member against the
protocol's error table and steps the survivors through the transition
table.  Loop bodies are executed twice over the joined entry state, so
a settle *inside* a loop over something else is seen as a repeat event.

**Conservatism.**  The analysis is local-names-only and treats every
unknown sink as an escape: storing a tracked value on an attribute or
into a container, returning it, capturing it in a closure, or passing
it to a call whose summary applies no protocol event all move the value
to ``escaped`` — no further obligations, no findings.  Imprecision can
therefore suppress findings, never invent them.

**Summaries.**  Each function's summary records, per parameter, the
union of that parameter's final state sets over all normal exits (a
raise path carries no obligations), plus the protocol state of a fresh
value it returns.  Call sites replay the summary: a callee that ACKs
its argument makes ``self._finalize(call)`` a settle event at the call
site, and a double settle through helpers is reported where the second
call happens.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .callgraph import FunctionInfo, ProjectIndex, project_index
from .engine import LintContext, Project

# -- shared abstract states ---------------------------------------------
#: A parameter's unknown incoming state: events are legal and recorded.
OPAQUE = "?"
#: Out of this function's view — ownership moved; no more obligations.
ESCAPED = "escaped"
#: Engine states for acquisition collections (a ``poll()`` result list).
FRESH_COLL = "fresh-collection"
DRAINED_COLL = "drained"

_MAX_PASSES = 10


@dataclass(frozen=True)
class Protocol:
    """One lifecycle FSM, declared as data.

    ``transitions`` maps ``(state, event) -> next state``;
    ``errors`` maps ``(state, event) -> message`` for the protocol's
    error states.  A pair in neither table is a no-op (unknown method,
    unknown state) — conservatism again.  Events arrive two ways:
    ``arg_events`` name methods whose *first argument* is the tracked
    value (``q.ack(call)``), ``recv_events`` name methods whose
    *receiver* is (``handle.cancel()``); ``proxy_attrs`` let an
    attribute stand in for its base object (``q.extend_lease(
    call.call_id)`` is an event on ``call``).
    """

    name: str
    rule_id: str
    states: Tuple[str, ...]
    initial: str
    #: Method names that mint a fresh tracked value.
    acquire: FrozenSet[str]
    #: Acquisition returns a list of fresh values (``poll``) rather
    #: than a single one; iteration/indexing mints the elements.
    acquire_collection: bool
    arg_events: Dict[str, str]
    recv_events: Dict[str, str]
    proxy_attrs: FrozenSet[str]
    transitions: Dict[Tuple[str, str], str]
    errors: Dict[Tuple[str, str], str]
    #: States that must not reach a normal function exit for values
    #: acquired in that function (a lost lease, a dropped armed handle).
    leak_states: FrozenSet[str]
    leak_message: str
    #: Report a bare, unbound acquisition (``shard.poll(...)`` as a
    #: statement) as an immediate leak — the fresh obligations are
    #: unreachable.  Off for handles: unbound scheduling is the normal
    #: fire-and-forget idiom.
    leak_on_drop: bool = False
    #: Message for rebinding a variable whose current value is still in
    #: ``initial`` state (double-arm); None disables the check.
    rebind_message: Optional[str] = None
    #: Attribute whose non-literal store on a tracked value re-arms it
    #: (``h.cancelled = flag``); the literal-``False`` form is SL006's
    #: finding and is deliberately excluded here.
    rearm_attr: Optional[str] = None
    rearm_message: str = ""


LEASE = Protocol(
    name="lease",
    rule_id="SL014",
    states=("polled", "acked", "nacked"),
    initial="polled",
    acquire=frozenset({"poll"}),
    acquire_collection=True,
    arg_events={"ack": "ack", "ack_by_id": "ack",
                "nack": "nack", "nack_by_id": "nack",
                "extend_lease": "extend"},
    recv_events={},
    proxy_attrs=frozenset({"call_id"}),
    transitions={
        ("polled", "ack"): "acked",
        ("polled", "nack"): "nacked",
        ("polled", "extend"): "polled",
        (OPAQUE, "ack"): "acked",
        (OPAQUE, "nack"): "nacked",
        (OPAQUE, "extend"): OPAQUE,
    },
    errors={
        ("acked", "ack"): ("ACK of a call that is already ACKed — each "
                           "leased call settles exactly once"),
        ("nacked", "ack"): ("ACK of a call that was already NACKed — "
                            "ack and nack on the same lease"),
        ("acked", "nack"): ("NACK of a call that was already ACKed — "
                            "ack and nack on the same lease"),
        ("nacked", "nack"): ("NACK of a call that was already NACKed — "
                             "double NACK"),
        ("acked", "extend"): ("extend_lease() on a call that was "
                              "already ACKed — extending a settled "
                              "lease"),
        ("nacked", "extend"): ("extend_lease() on a call that was "
                               "already NACKed — extending a settled "
                               "lease"),
    },
    leak_states=frozenset({"polled"}),
    leak_message=("a call leased by poll() can reach the end of this "
                  "function unsettled (no ack/nack and no owner on some "
                  "path) — the lease is lost until the sweep expires "
                  "it"),
    leak_on_drop=True,
)

HANDLE = Protocol(
    name="handle",
    rule_id="SL013",
    states=("armed", "cancelled"),
    initial="armed",
    acquire=frozenset({"call_after", "call_at", "every"}),
    acquire_collection=False,
    arg_events={},
    recv_events={"cancel": "cancel"},
    proxy_attrs=frozenset(),
    transitions={
        ("armed", "cancel"): "cancelled",
        (OPAQUE, "cancel"): "cancelled",
    },
    errors={
        ("cancelled", "cancel"): ("cancel() of an already-cancelled "
                                  "handle — handles are one-shot"),
    },
    leak_states=frozenset({"armed"}),
    leak_message=("armed handle bound here never escapes and is never "
                  "cancelled — store it where it can be cancelled, or "
                  "drop the binding (fire-and-forget)"),
    rebind_message=("rebinding a variable that still holds an armed "
                    "handle (double-arm) — the old event keeps firing "
                    "with no handle left to cancel it"),
    rearm_attr="cancelled",
    rearm_message=("store to .cancelled re-arms a one-shot handle and "
                   "corrupts event-queue accounting — schedule a fresh "
                   "event instead"),
)

SNAPSHOT = Protocol(
    name="snapshot",
    rule_id="SL015",
    states=("fresh", "consumed"),
    initial="fresh",
    acquire=frozenset({"snapshot"}),
    acquire_collection=False,
    arg_events={"merge": "consume", "from_snapshot": "consume"},
    recv_events={},
    proxy_attrs=frozenset(),
    transitions={
        ("fresh", "consume"): "consumed",
        (OPAQUE, "consume"): "consumed",
    },
    errors={
        ("consumed", "consume"): ("snapshot merged/rehydrated a second "
                                  "time — folding the same snapshot in "
                                  "again double-counts every metric"),
    },
    leak_states=frozenset(),
    leak_message="",
)

PROTOCOLS: Tuple[Protocol, ...] = (LEASE, HANDLE, SNAPSHOT)

#: method name -> (protocol, event) for first-argument events.
_ARG_EVENTS: Dict[str, Tuple[Protocol, str]] = {
    m: (proto, ev) for proto in PROTOCOLS
    for m, ev in proto.arg_events.items()}
#: method name -> (protocol, event) for receiver events.
_RECV_EVENTS: Dict[str, Tuple[Protocol, str]] = {
    m: (proto, ev) for proto in PROTOCOLS
    for m, ev in proto.recv_events.items()}
#: acquisition method name -> protocol.
_ACQUIRE: Dict[str, Protocol] = {
    m: proto for proto in PROTOCOLS for m in proto.acquire}
#: nominal result state of an event (its OPAQUE-source transition).
_NOMINAL: Dict[Tuple[str, str], str] = {
    (proto.name, ev): proto.transitions[(OPAQUE, ev)]
    for proto in PROTOCOLS
    for ev in set(proto.arg_events.values()) | set(
        proto.recv_events.values())}
#: protocol state -> event that produces it (for summary replay).
_STATE_EVENT: Dict[Tuple[str, str], str] = {
    (proto.name, tgt): ev for proto in PROTOCOLS
    for (src, ev), tgt in proto.transitions.items()
    if src == OPAQUE and tgt != OPAQUE}

#: SL015's mutation guard: a chained ``registry.counter(...).inc(...)``
#: while one of the registry's snapshots awaits its merge.
_REGISTRY_ACCESSORS = frozenset(
    {"counter", "gauge", "distribution", "bind_counter", "bind_gauge",
     "bind_distribution"})
_METRIC_MUTATORS = frozenset(
    {"inc", "dec", "add", "set", "record", "observe", "merge"})
_MUTATE_MESSAGE = ("registry mutated between snapshot() and the "
                   "snapshot's merge — the captured snapshot is stale "
                   "and the mutation is lost to whoever merges it")
_SELF_MERGE_MESSAGE = ("registry merged into itself — every metric "
                       "double-counts")


def _collect_locals(fnode: ast.AST) -> Set[str]:
    """Names bound inside ``fnode``, not descending into nested defs."""
    names: Set[str] = set()
    stack: List[ast.AST] = list(ast.iter_child_nodes(fnode))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _free_names(fnode: ast.AST) -> Set[str]:
    """Names a nested def/lambda reads from its enclosing scope."""
    if isinstance(fnode, ast.Lambda):
        bound = {a.arg for a in fnode.args.args}
        bound |= {a.arg for a in getattr(fnode.args, "posonlyargs", [])}
        bound |= {a.arg for a in fnode.args.kwonlyargs}
        body: Sequence[ast.AST] = [fnode.body]
    elif isinstance(fnode, (ast.FunctionDef, ast.AsyncFunctionDef)):
        bound = set(_collect_locals(fnode))
        args = fnode.args
        bound |= {a.arg for a in args.args}
        bound |= {a.arg for a in getattr(args, "posonlyargs", [])}
        bound |= {a.arg for a in args.kwonlyargs}
        body = fnode.body
    else:
        return set()
    free: Set[str] = set()
    for part in body:
        for node in ast.walk(part):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                free |= _free_names(node)
            elif (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)):
                free.add(node.id)
    return free - bound


@dataclass
class _Obj:
    """One tracked value (or acquisition collection) of a walk."""

    oid: int
    protocol: Optional[Protocol]
    node: ast.AST                    #: acquisition / parameter node
    desc: str
    param_index: Optional[int] = None
    is_collection: bool = False
    provenance: Optional[str] = None  #: snapshot: source registry id


@dataclass
class TSummary:
    """What a function does, protocol-wise, to its parameters.

    ``params`` maps a positional index to ``(protocol name, union of
    final state sets over all normal exits)`` — ``OPAQUE`` in the set
    means "untouched on some path".  ``returns`` carries the state of a
    fresh tracked value the function returns, if any.
    """

    params: Dict[int, Tuple[str, FrozenSet[str]]] = field(
        default_factory=dict)
    returns: Optional[Tuple[str, FrozenSet[str]]] = None


class _Path:
    """Abstract state along one control-flow path."""

    __slots__ = ("env", "states", "live")

    def __init__(self, env: Optional[Dict[str, int]] = None,
                 states: Optional[Dict[int, FrozenSet[str]]] = None,
                 live: bool = True) -> None:
        self.env: Dict[str, int] = dict(env) if env else {}
        self.states: Dict[int, FrozenSet[str]] = (
            dict(states) if states else {})
        self.live = live

    def copy(self) -> "_Path":
        return _Path(self.env, self.states, self.live)


def _join(a: _Path, b: _Path) -> _Path:
    """May-join: agreeing bindings survive, state sets union."""
    if not a.live:
        return b.copy() if b.live else _Path(live=False)
    if not b.live:
        return a.copy()
    env = {name: oid for name, oid in a.env.items()
           if b.env.get(name) == oid}
    states: Dict[int, FrozenSet[str]] = dict(a.states)
    for oid, st in b.states.items():
        states[oid] = states.get(oid, frozenset()) | st
    return _Path(env, states)


def _join_all(paths: Sequence[_Path]) -> _Path:
    out = _Path(live=False)
    for p in paths:
        out = _join(out, p)
    return out


def _dotted(expr: ast.expr) -> Optional[str]:
    """Stable identity string for simple receivers (``self.metrics``)."""
    parts: List[str] = []
    cur = expr
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _call_method(node: ast.Call) -> Optional[str]:
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return None


class _FnWalk:
    """Abstract interpretation of one function body."""

    def __init__(self, analysis: "TypestateAnalysis",
                 info: FunctionInfo) -> None:
        self.analysis = analysis
        self.info = info
        self.ctx = info.ctx
        self.objs: Dict[int, _Obj] = {}
        self._next_oid = 0
        self.violations: List[Tuple[str, ast.AST, str]] = []
        self.exit_paths: List[_Path] = []
        #: fresh values returned, for the summary (protocol, states).
        self.returned: Optional[Tuple[str, FrozenSet[str]]] = None
        self._param_oids: Dict[int, int] = {}
        self._break_stack: List[List[_Path]] = []

    # -- plumbing --------------------------------------------------------
    def _mint(self, protocol: Optional[Protocol], node: ast.AST,
              desc: str, path: _Path, states: FrozenSet[str],
              is_collection: bool = False,
              param_index: Optional[int] = None,
              provenance: Optional[str] = None) -> int:
        oid = self._next_oid
        self._next_oid += 1
        self.objs[oid] = _Obj(oid, protocol, node, desc,
                              param_index=param_index,
                              is_collection=is_collection,
                              provenance=provenance)
        path.states[oid] = states
        return oid

    def _violate(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.violations.append((rule_id, node, message))

    def _escape(self, oid: int, path: _Path) -> None:
        path.states[oid] = frozenset({ESCAPED})

    # -- entry -----------------------------------------------------------
    def run(self) -> None:
        entry = _Path()
        for i, p in enumerate(self.info.params):
            oid = self._mint(None, self.info.node, f"parameter {p!r}",
                             entry, frozenset({OPAQUE}), param_index=i)
            self._param_oids[i] = oid
            entry.env[p] = oid
        out = self._stmts(self.info.node.body, entry)
        if out.live:
            self.exit_paths.append(out)
        self._check_leaks()

    def _check_leaks(self) -> None:
        if not self.exit_paths:
            return
        final = _join_all(self.exit_paths)
        for oid, states in sorted(final.states.items()):
            obj = self.objs[oid]
            if obj.param_index is not None or obj.protocol is None:
                continue
            proto = obj.protocol
            if obj.is_collection:
                if FRESH_COLL in states and proto.leak_on_drop:
                    self._violate(
                        proto.rule_id, obj.node,
                        f"{obj.desc} result dropped without settling "
                        "its leased calls")
                continue
            if proto.leak_states & states:
                self._violate(proto.rule_id, obj.node, proto.leak_message)

    def summary(self) -> TSummary:
        out = TSummary()
        if self.exit_paths:
            final = _join_all(self.exit_paths)
            for i, oid in sorted(self._param_oids.items()):
                obj = self.objs[oid]
                if obj.protocol is None:
                    continue
                states = final.states.get(oid, frozenset({OPAQUE}))
                if states - {OPAQUE}:
                    out.params[i] = (obj.protocol.name, states)
        out.returns = self.returned
        return out

    # -- statements ------------------------------------------------------
    def _stmts(self, body: Sequence[ast.stmt], path: _Path) -> _Path:
        for stmt in body:
            if not path.live:
                return path
            path = self._stmt(stmt, path)
        return path

    def _stmt(self, stmt: ast.stmt, path: _Path) -> _Path:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # The nested def is analyzed independently (own opaque
            # params); here it only captures — anything tracked that it
            # closes over escapes our view (it may run at any time).
            self._escape_free_names(stmt, path)
            return path
        if isinstance(stmt, ast.ClassDef):
            return path
        if isinstance(stmt, ast.Assign):
            return self._assign(stmt.targets, stmt.value, stmt, path)
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                return self._assign([stmt.target], stmt.value, stmt, path)
            return path
        if isinstance(stmt, ast.AugAssign):
            self._expr_effects(stmt.value, path)
            return path
        if isinstance(stmt, ast.Return):
            return self._return(stmt, path)
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._expr_effects(stmt.exc, path)
            path.live = False
            return path
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, path)
        if isinstance(stmt, ast.While):
            self._expr_effects(stmt.test, path)
            return self._loop(stmt.body, stmt.orelse, path)
        if isinstance(stmt, ast.If):
            self._expr_effects(stmt.test, path)
            then = self._stmts(stmt.body, path.copy())
            other = self._stmts(stmt.orelse, path.copy())
            return _join(then, other)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr_effects(item.context_expr, path)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None, path)
            return self._stmts(stmt.body, path)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, path)
        if isinstance(stmt, ast.Break):
            if self._break_stack:
                self._break_stack[-1].append(path.copy())
            path.live = False
            return path
        if isinstance(stmt, ast.Continue):
            if self._break_stack:
                self._break_stack[-1].append(path.copy())
            path.live = False
            return path
        if isinstance(stmt, ast.Expr):
            self._expr_effects(stmt.value, path, statement=True)
            return path
        if isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    path.env.pop(tgt.id, None)
            return path
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr_effects(child, path)
        return path

    def _return(self, stmt: ast.Return, path: _Path) -> _Path:
        if stmt.value is not None:
            oid: Optional[int] = None
            if isinstance(stmt.value, ast.Name):
                oid = path.env.get(stmt.value.id)
            else:
                self._expr_effects(stmt.value, path)
                oid = self._value_of(stmt.value, path)
            if oid is not None:
                obj = self.objs[oid]
                if (obj.protocol is not None and obj.param_index is None
                        and self.returned is None
                        and not obj.is_collection):
                    states = path.states.get(
                        oid, frozenset()) - {ESCAPED}
                    if states:
                        self.returned = (obj.protocol.name, states)
                self._escape(oid, path)
        self.exit_paths.append(path.copy())
        path.live = False
        return path

    def _try(self, stmt: ast.Try, path: _Path) -> _Path:
        entry = path.copy()
        after_body = self._stmts(stmt.body, path)
        if after_body.live:
            after_body = self._stmts(stmt.orelse, after_body)
        # An exception can surface anywhere in the body; the handler's
        # entry state is approximated by the try's entry state.
        branches = [after_body]
        for handler in stmt.handlers:
            h = entry.copy()
            if handler.name and isinstance(handler.name, str):
                h.env.pop(handler.name, None)
            branches.append(self._stmts(handler.body, h))
        merged = _join_all(branches)
        return self._stmts(stmt.finalbody, merged)

    def _loop(self, body: Sequence[ast.stmt],
              orelse: Sequence[ast.stmt], path: _Path,
              bind: Optional[Tuple[ast.expr, ast.expr]] = None) -> _Path:
        """Two monotone passes over a loop body with head joins."""
        self._break_stack.append([])
        try:
            head = path
            for _ in range(2):
                p = head.copy()
                if bind is not None:
                    self._bind_iteration(bind[0], bind[1], p)
                p = self._stmts(body, p)
                head = _join(head, p)
            exits = [head] + self._break_stack[-1]
        finally:
            self._break_stack.pop()
        out = _join_all(exits)
        return self._stmts(orelse, out)

    def _for(self, stmt: "ast.For | ast.AsyncFor", path: _Path) -> _Path:
        self._expr_effects(stmt.iter, path)
        return self._loop(stmt.body, stmt.orelse, path,
                          bind=(stmt.target, stmt.iter))

    def _bind_iteration(self, target: ast.expr, it: ast.expr,
                        path: _Path) -> None:
        """Iterating an acquisition collection mints fresh elements."""
        src: Optional[int] = None
        if isinstance(it, ast.Name):
            src = path.env.get(it.id)
        else:
            src = self._value_of(it, path)
        if src is not None:
            obj = self.objs[src]
            if obj.is_collection and obj.protocol is not None:
                states = path.states.get(src, frozenset())
                if ESCAPED not in states:
                    path.states[src] = frozenset({DRAINED_COLL})
                if isinstance(target, ast.Name):
                    proto = obj.protocol
                    oid = self._mint(proto, obj.node,
                                     f"{proto.name} from {obj.desc}",
                                     path, frozenset({proto.initial}))
                    path.env[target.id] = oid
                    return
        self._bind(target, None, path)

    # -- assignment ------------------------------------------------------
    def _assign(self, targets: Sequence[ast.expr], value: ast.expr,
                stmt: ast.stmt, path: _Path) -> _Path:
        oid: Optional[int] = None
        if isinstance(value, ast.Name):
            oid = path.env.get(value.id)        # alias, no effects
        elif isinstance(value, ast.Lambda):
            self._escape_free_names(value, path)
        else:
            self._expr_effects(value, path)
            oid = self._value_of(value, path)
        for target in targets:
            self._bind(target, oid, path, value=value)
        return path

    def _bind(self, target: ast.expr, oid: Optional[int], path: _Path,
              value: Optional[ast.expr] = None) -> None:
        if isinstance(target, ast.Name):
            old = path.env.get(target.id)
            if (old is not None and oid != old):
                old_obj = self.objs[old]
                proto = old_obj.protocol
                if (proto is not None and proto.rebind_message
                        and old_obj.param_index is None
                        and proto.initial in path.states.get(
                            old, frozenset())):
                    self._violate(proto.rule_id, target,
                                  proto.rebind_message)
            if oid is not None:
                path.env[target.id] = oid
            else:
                path.env.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if (isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(target.elts)):
                for t, v in zip(target.elts, value.elts):
                    sub = (path.env.get(v.id)
                           if isinstance(v, ast.Name) else None)
                    self._bind(t, sub, path, value=v)
            else:
                for t in target.elts:
                    self._bind(t, None, path)
            return
        # Attribute / subscript target: the stored value has an owner
        # now — escape it.  A store *onto* a tracked object is a no-op
        # (``call.state = BUFFERED``) except the re-arm attribute.
        if oid is not None:
            self._escape(oid, path)
        if isinstance(target, ast.Attribute):
            base = (path.env.get(target.value.id)
                    if isinstance(target.value, ast.Name) else None)
            if base is not None:
                obj = self.objs[base]
                proto = obj.protocol
                if (proto is not None and proto.rearm_attr == target.attr
                        and not (isinstance(value, ast.Constant)
                                 and value.value is False)):
                    self._violate(proto.rule_id, target,
                                  proto.rearm_message)
        elif isinstance(target, ast.Subscript):
            self._expr_effects(target.slice, path)

    # -- expressions -----------------------------------------------------
    def _escape_free_names(self, fnode: ast.AST, path: _Path) -> None:
        for name in sorted(_free_names(fnode)):
            oid = path.env.get(name)
            if oid is not None:
                self._escape(oid, path)

    def _value_of(self, expr: ast.expr, path: _Path) -> Optional[int]:
        """The tracked oid ``expr`` evaluates to (minting fresh ones)."""
        if isinstance(expr, ast.Name):
            return path.env.get(expr.id)
        if isinstance(expr, ast.Await):
            return self._value_of(expr.value, path)
        if isinstance(expr, ast.Subscript):
            base = self._value_of(expr.value, path)
            if base is not None:
                obj = self.objs[base]
                if obj.is_collection and obj.protocol is not None:
                    states = path.states.get(base, frozenset())
                    if ESCAPED not in states:
                        path.states[base] = frozenset({DRAINED_COLL})
                    proto = obj.protocol
                    return self._mint(proto, obj.node,
                                      f"{proto.name} from {obj.desc}",
                                      path, frozenset({proto.initial}))
            return None
        if isinstance(expr, ast.Call):
            method = _call_method(expr)
            proto = _ACQUIRE.get(method) if method is not None else None
            if proto is not None and isinstance(expr.func, ast.Attribute):
                provenance = None
                if proto is SNAPSHOT:
                    provenance = _dotted(expr.func.value)
                return self._mint(
                    proto, expr, f"{method}()", path,
                    frozenset({FRESH_COLL if proto.acquire_collection
                               else proto.initial}),
                    is_collection=proto.acquire_collection,
                    provenance=provenance)
            callee = self.analysis.index.resolve_call(self.info, expr)
            if callee is not None:
                summary = self.analysis.summaries.get(callee.qualname)
                if summary is not None and summary.returns is not None:
                    pname, states = summary.returns
                    rproto = next(p for p in PROTOCOLS if p.name == pname)
                    return self._mint(rproto, expr,
                                      f"{callee.name}()", path, states)
        return None

    def _expr_effects(self, expr: Optional[ast.expr], path: _Path,
                      statement: bool = False) -> None:
        """Process events and escapes inside an arbitrary expression."""
        if expr is None:
            return
        consumed: Set[int] = set()
        # Calls under a lambda run later (if ever), so they must not
        # step the FSM here; the lambda's free names escape instead.
        deferred: Set[int] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                deferred.update(id(n) for n in ast.walk(node.body))
        calls = [n for n in ast.walk(expr)
                 if isinstance(n, ast.Call) and id(n) not in deferred]
        for call in calls:
            self._call_effects(call, path, consumed)
        if statement and isinstance(expr, ast.Call):
            method = _call_method(expr)
            proto = _ACQUIRE.get(method) if method is not None else None
            if (proto is not None and proto.leak_on_drop
                    and isinstance(expr.func, ast.Attribute)):
                self._violate(
                    proto.rule_id, expr,
                    f"{method}() result discarded — its leased calls "
                    "can never be settled from here")
        for node in ast.walk(expr):
            if isinstance(node, (ast.Lambda, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                self._escape_free_names(node, path)
                continue
            if not (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)):
                continue
            if id(node) in consumed:
                continue
            oid = path.env.get(node.id)
            if oid is None:
                continue
            parent = self.ctx.parent(node)
            # Field reads (call.function_name) and receiver positions
            # (call.method(...)) do not transfer ownership.
            if isinstance(parent, ast.Attribute):
                continue
            if isinstance(parent, ast.Call) and parent.func is node:
                continue
            if isinstance(parent, ast.Compare):
                continue
            self._escape(oid, path)

    def _event_target(self, arg: ast.expr, proto: Protocol,
                      path: _Path, consumed: Set[int]) -> Optional[int]:
        """Resolve an event argument (or its proxy attr) to an oid."""
        if isinstance(arg, ast.Name):
            oid = path.env.get(arg.id)
            if oid is not None:
                consumed.add(id(arg))
            return oid
        if (isinstance(arg, ast.Attribute)
                and arg.attr in proto.proxy_attrs
                and isinstance(arg.value, ast.Name)):
            oid = path.env.get(arg.value.id)
            if oid is not None:
                consumed.add(id(arg.value))
            return oid
        return None

    def _call_effects(self, node: ast.Call, path: _Path,
                      consumed: Set[int]) -> None:
        method = _call_method(node)
        if method is None:
            return
        fn = node.func
        recv = fn.value if isinstance(fn, ast.Attribute) else None

        # SL015 special cases, independent of value tracking.
        if method == "merge" and recv is not None and node.args:
            rid, aid = _dotted(recv), _dotted(node.args[0])
            if rid is not None and rid == aid:
                self._violate(SNAPSHOT.rule_id, node, _SELF_MERGE_MESSAGE)
        if (method in _METRIC_MUTATORS and isinstance(recv, ast.Call)
                and isinstance(recv.func, ast.Attribute)
                and recv.func.attr in _REGISTRY_ACCESSORS):
            self._check_snapshot_mutation(node, recv.func.value, path)

        # First-argument events (q.ack(call), reg.merge(snap), ...).
        hit = _ARG_EVENTS.get(method)
        if hit is not None and node.args:
            proto, event = hit
            oid = self._event_target(node.args[0], proto, path, consumed)
            if oid is not None and not self.objs[oid].is_collection:
                self._apply_event(oid, proto, event, node, path)
                return
        # Receiver events (handle.cancel()).
        hit = _RECV_EVENTS.get(method)
        if hit is not None and isinstance(recv, ast.Name):
            proto, event = hit
            oid = path.env.get(recv.id)
            if oid is not None:
                self._apply_event(oid, proto, event, node, path)
                return
        # Summary replay for resolved calls.
        callee = self.analysis.index.resolve_call(self.info, node)
        if callee is None:
            return
        summary = self.analysis.summaries.get(callee.qualname)
        if summary is None or not summary.params:
            return
        offset = 1 if callee.class_name is not None else 0
        for pos, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            self._replay_param(callee, summary, pos + offset, arg,
                               node, path, consumed)
        for kw in node.keywords:
            if kw.arg is None:
                continue
            idx = callee.param_index(kw.arg)
            if idx is not None:
                self._replay_param(callee, summary, idx, kw.value,
                                   node, path, consumed)

    def _replay_param(self, callee: FunctionInfo, summary: TSummary,
                      index: int, arg: ast.expr, node: ast.Call,
                      path: _Path, consumed: Set[int]) -> None:
        info = summary.params.get(index)
        if info is None:
            return
        pname, final = info
        proto = next(p for p in PROTOCOLS if p.name == pname)
        oid = self._event_target(arg, proto, path, consumed)
        if oid is None or self.objs[oid].is_collection:
            return
        obj = self.objs[oid]
        if obj.protocol is None:
            obj.protocol = proto
        current = path.states.get(oid, frozenset())
        out: Set[str] = set()
        for f in sorted(final):
            if f == OPAQUE:
                out |= current          # untouched on that callee path
                continue
            if f == ESCAPED:
                out.add(ESCAPED)
                continue
            event = _STATE_EVENT.get((pname, f))
            if event is None:
                out.add(f)
                continue
            for s in sorted(current):
                if s == ESCAPED:
                    out.add(ESCAPED)
                    continue
                err = proto.errors.get((s, event))
                if err is not None:
                    self._violate(proto.rule_id, node,
                                  f"{err} (via {callee.name}())")
                    out.add(s)
                    continue
                out.add(proto.transitions.get((s, event), s)
                        if (s, event) in proto.transitions else f)
        if out:
            path.states[oid] = frozenset(out)

    def _apply_event(self, oid: int, proto: Protocol, event: str,
                     node: ast.AST, path: _Path) -> None:
        obj = self.objs[oid]
        if obj.protocol is None:
            obj.protocol = proto
        elif obj.protocol is not proto:
            return
        current = path.states.get(oid, frozenset({OPAQUE}))
        out: Set[str] = set()
        for s in sorted(current):
            if s == ESCAPED:
                out.add(ESCAPED)
                continue
            err = proto.errors.get((s, event))
            if err is not None:
                self._violate(proto.rule_id, node, err)
                out.add(s)      # stay: a third event reports again
                continue
            tgt = proto.transitions.get((s, event))
            out.add(tgt if tgt is not None else s)
        path.states[oid] = frozenset(out)
        if proto is SNAPSHOT and event == "consume":
            self.analysis.note_consumed(self.info.qualname, oid)

    def _check_snapshot_mutation(self, node: ast.Call,
                                 registry: ast.expr,
                                 path: _Path) -> None:
        rid = _dotted(registry)
        if rid is None:
            return
        for oid, states in sorted(path.states.items()):
            obj = self.objs[oid]
            if (obj.protocol is SNAPSHOT and obj.provenance == rid
                    and "fresh" in states):
                self._violate(SNAPSHOT.rule_id, node, _MUTATE_MESSAGE)
                return


class TypestateAnalysis:
    """Whole-project typestate analysis; built once per lint run."""

    def __init__(self, project: Project) -> None:
        self.index: ProjectIndex = project_index(project)
        self.summaries: Dict[str, TSummary] = {
            q: TSummary() for q in self.index.functions}
        self._consumed: Set[Tuple[str, int]] = set()
        walks: Dict[str, _FnWalk] = {}
        for _ in range(_MAX_PASSES):
            walks = {}
            self._consumed = set()
            for info in self.index.all_functions():
                walk = _FnWalk(self, info)
                walk.run()
                walks[info.qualname] = walk
            new = {q: walks[q].summary() for q in walks}
            for q in self.summaries:
                new.setdefault(q, TSummary())
            if new == self.summaries:
                break
            self.summaries = new
        self.walks = walks

    def note_consumed(self, qualname: str, oid: int) -> None:
        self._consumed.add((qualname, oid))

    def findings(self) -> Iterator[Tuple[str, LintContext, ast.AST, str]]:
        """``(rule_id, ctx, node, message)``, deduplicated."""
        seen: Set[Tuple[str, str, int, int, str]] = set()
        for qual in sorted(self.walks):
            walk = self.walks[qual]
            for rule_id, node, message in walk.violations:
                key = (rule_id, walk.ctx.path,
                       getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)
                if key not in seen:
                    seen.add(key)
                    yield rule_id, walk.ctx, node, message


def typestate_analysis(project: Project) -> TypestateAnalysis:
    """The (cached) :class:`TypestateAnalysis` of ``project``."""
    analysis = project.cache.get("typestate.analysis")
    if analysis is None:
        analysis = TypestateAnalysis(project)
        project.cache["typestate.analysis"] = analysis
    return analysis  # type: ignore[return-value]
