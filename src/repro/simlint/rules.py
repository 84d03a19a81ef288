"""The curated ruleset: this repo's determinism contract, as code.

Every rule cites the hazard it guards against; SL001 exists because the
hazard was real twice (the PR 2 ``core/platform.py`` call-id bug, and
the three sibling counters fixed alongside this linter).  See DESIGN.md
§"Static analysis & the determinism contract" for the prose version.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from .engine import Finding, LintContext, Rule, Severity

#: Packages whose modules run *inside* a simulation — anything here may
#: execute between two `sim.run_until` calls and must be replayable.
SIM_PACKAGES = frozenset(
    {"sim", "core", "cluster", "downstream", "triggers", "workloads",
     "baselines"})

#: Where SL002 (wall-clock/entropy) applies.  `sweep` and the benchmark
#: layer legitimately read `time.perf_counter` for wall-clock reporting,
#: so they are excluded; everything that runs under the simulated clock
#: is included.
CLOCK_PACKAGES = frozenset(
    {"sim", "core", "cluster", "downstream", "triggers", "workloads",
     "baselines"})

#: Modules whose objects cross the multiprocessing pickle boundary.
SWEEP_REACHABLE = frozenset({"sweep", "metrics", ""})


def _assign_targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield node.target


class ModuleMutableIdState(Rule):
    """SL001 — module-level mutable ID/counter state.

    A process-global ``itertools.count`` (or a private module-level
    mutable used as a counter/registry) makes the Nth run in a process
    differ from a fresh-process run: ids keep climbing, trace digests
    diverge, sweeps stop being comparable to serial runs.  This is the
    exact bug PR 2 fixed in ``core/platform.py``.
    """

    id = "SL001"
    severity = Severity.ERROR
    title = "module-level mutable ID state"
    fix_hint = ("allocate ids from per-instance state (e.g. a counter "
                "attribute on the owning platform/pool/engine object)")
    packages = SIM_PACKAGES

    _COUNTERISH = re.compile(r"(_?ids?|counter|counters|count|counts|seq|"
                             r"seqs|serials?|registry)$")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            if not ctx.is_module_or_class_level(node):
                continue
            value = node.value
            if value is None:
                continue
            if self._is_counter_factory(ctx, value):
                yield ctx.finding(
                    self, node,
                    "module-level itertools.count survives across "
                    "back-to-back runs in one process")
                continue
            if self._is_mutable_literal(value):
                for target in _assign_targets(node):
                    if (isinstance(target, ast.Name)
                            and target.id.startswith("_")
                            and self._COUNTERISH.search(target.id)):
                        yield ctx.finding(
                            self, node,
                            f"module-level mutable {target.id!r} used as "
                            "id/counter state leaks across runs")
                        break

    @staticmethod
    def _is_counter_factory(ctx: LintContext, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        name, known = ctx.resolve(value.func)
        return known and name == "itertools.count"

    @staticmethod
    def _is_mutable_literal(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in {"list", "dict", "set", "defaultdict",
                                     "deque", "OrderedDict", "Counter"}
        return False


class WallClockLeak(Rule):
    """SL002 — wall-clock and entropy leaks into simulated code.

    ``time.time()`` inside the simulation makes a run depend on the host
    machine; ``uuid.uuid4()`` / ``os.urandom`` / module-level
    ``random.*`` make it depend on interpreter-global entropy.  All
    randomness must come from named ``sim.rng`` streams and all time
    from ``sim.now``.
    """

    id = "SL002"
    severity = Severity.ERROR
    title = "wall-clock / entropy leak"
    fix_hint = ("use sim.now for time and a named sim.rng.stream(...) "
                "for randomness; wall-clock belongs only in benchmark "
                "and sweep harness code")
    packages = CLOCK_PACKAGES

    _BANNED = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getrandom",
        "random.SystemRandom", "secrets.token_bytes", "secrets.token_hex",
        "secrets.randbelow",
    })
    #: Module-level random.* functions share one implicitly-seeded global
    #: Random; everything except explicit seeded-instance construction.
    _RANDOM_OK = frozenset({"random.Random"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            name, known = ctx.resolve(node.func)
            if not known:
                continue
            if name in self._BANNED:
                yield ctx.finding(
                    self, node,
                    f"{name}() leaks host wall-clock/entropy into "
                    "simulated code")
            elif (name.startswith("random.")
                  and name.count(".") == 1
                  and name not in self._RANDOM_OK):
                yield ctx.finding(
                    self, node,
                    f"{name}() draws from the process-global random "
                    "state instead of a named sim.rng stream")


class UnorderedIteration(Rule):
    """SL003 — iteration over freshly-built ``set``s in sim code.

    Iterating a set of objects (or id-keyed dict) visits elements in
    hash order, which for objects depends on memory addresses — run to
    run, the schedule changes.  Iterate sorted views or lists instead.
    """

    id = "SL003"
    severity = Severity.WARNING
    title = "iteration over unordered set"
    fix_hint = ("iterate a list or sorted(...) view; set iteration "
                "order depends on hashes and, for objects, on memory "
                "addresses")
    packages = SIM_PACKAGES

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(ctx, it):
                    yield ctx.finding(
                        self, node,
                        "iterating a set: element order is hash-dependent "
                        "and not reproducible for objects")

    @staticmethod
    def _is_set_expr(ctx: LintContext, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            name, known = ctx.resolve(expr.func)
            return not known and name in {"set", "frozenset"}
        return False


class FloatTimeAccumulation(Rule):
    """SL004 — accumulating simulation time with ``+=`` outside the kernel.

    Repeated float addition drifts (``0.1 * 10 != 1.0``); two components
    accumulating "the same" clock independently will disagree after
    enough steps.  The kernel owns the clock — read ``sim.now``, or
    schedule at absolute times, instead of integrating deltas.
    """

    id = "SL004"
    severity = Severity.WARNING
    title = "float accumulation of simulated time"
    fix_hint = ("read sim.now (the kernel owns the clock) or track an "
                "absolute next-deadline instead of summing float deltas")
    packages = SIM_PACKAGES - frozenset({"sim"})

    _TIMEISH = re.compile(r"(^now$|^_now$|_time$)")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            name = self._target_name(node.target)
            if name is not None and self._TIMEISH.search(name):
                yield ctx.finding(
                    self, node,
                    f"accumulating simulated time into {name!r} with "
                    "'+='; float integration drifts from the kernel "
                    "clock")

    @staticmethod
    def _target_name(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Attribute):
            return target.attr
        if isinstance(target, ast.Name):
            return target.id
        return None


class PickleUnsafe(Rule):
    """SL005 — pickle-unsafe constructs in sweep-reachable code.

    The sweep engine ships specs and results across a ``spawn``
    multiprocessing boundary.  Lambdas stored on attributes and classes
    defined inside functions do not pickle; the failure surfaces only
    at fan-out time, far from the definition.
    """

    id = "SL005"
    severity = Severity.ERROR
    title = "pickle-unsafe construct in sweep-reachable code"
    fix_hint = ("use a module-level function / class instead; anything "
                "stored on sweep specs or results must survive pickling "
                "under the spawn start method")
    packages = SWEEP_REACHABLE

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.ClassDef):
                if ctx.enclosing_function(node) is not None:
                    yield ctx.finding(
                        self, node,
                        f"class {node.name!r} defined inside a function "
                        "cannot be pickled by the sweep fan-out")
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if not isinstance(value, ast.Lambda):
                    continue
                for target in _assign_targets(node):
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        yield ctx.finding(
                            self, node,
                            f"lambda stored on self.{target.attr} does "
                            "not pickle across the sweep boundary")
                        break
                    if (isinstance(target, ast.Name)
                            and ctx.enclosing_class(node) is not None
                            and ctx.enclosing_function(node) is None):
                        yield ctx.finding(
                            self, node,
                            "lambda stored on class field "
                            f"{target.id!r} does not pickle across the "
                            "sweep boundary")
                        break


class EventHandleMisuse(Rule):
    """SL006 — scheduling with negative delays / resurrecting handles.

    ``call_after(-x, ...)`` raises at runtime only when that path
    executes; a negative literal is always a bug.  Un-cancelling a
    :class:`ScheduledEvent` by writing ``handle.cancelled = False``
    corrupts the queue's lazy-deletion accounting — handles are
    one-shot, schedule a fresh one instead.
    """

    id = "SL006"
    severity = Severity.ERROR
    title = "event-handle misuse"
    fix_hint = ("delays must be >= 0 literals; never flip "
                "handle.cancelled back — create a new event via "
                "sim.call_after/call_at instead of re-arming")
    packages = None  # scheduling misuse is wrong everywhere

    _SCHEDULERS = frozenset({"call_after", "call_at", "timeout", "every",
                             "schedule", "push"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                fn = node.func
                name = (fn.attr if isinstance(fn, ast.Attribute)
                        else fn.id if isinstance(fn, ast.Name) else None)
                if (name in self._SCHEDULERS and node.args
                        and self._is_negative_literal(node.args[0])):
                    yield ctx.finding(
                        self, node,
                        f"{name}() called with a negative delay/time "
                        "literal — this always raises (or schedules in "
                        "the past)")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and target.attr == "cancelled"
                            and isinstance(node.value, ast.Constant)
                            and node.value.value is False
                            and not self._is_init_default(ctx, node,
                                                          target)):
                        yield ctx.finding(
                            self, node,
                            "re-arming a cancelled handle by writing "
                            ".cancelled = False corrupts event-queue "
                            "accounting")

    @staticmethod
    def _is_init_default(ctx: LintContext, node: ast.AST,
                         target: ast.Attribute) -> bool:
        """``self.cancelled = False`` inside ``__init__`` is construction,
        not re-arming."""
        if not (isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return False
        fn = ctx.enclosing_function(node)
        return isinstance(fn, ast.FunctionDef) and fn.name == "__init__"

    @staticmethod
    def _is_negative_literal(arg: ast.expr) -> bool:
        return (isinstance(arg, ast.UnaryOp)
                and isinstance(arg.op, ast.USub)
                and isinstance(arg.operand, ast.Constant)
                and isinstance(arg.operand.value, (int, float))
                and arg.operand.value > 0)


class PerEventMetricLookup(Rule):
    """SL007 — per-event metric/stream name lookups on the hot path.

    Building a metric or RNG-stream name with an f-string per event, or
    re-resolving ``registry.counter(...)`` inside a loop of a sim-clock
    handler, pays a string build plus a dict lookup for every simulated
    event — the exact overhead the PR 4 profiling round attributed to
    the component layer.  Handles are stable objects: resolve them once
    at component init (or memoize per name) and reuse them.
    """

    id = "SL007"
    severity = Severity.WARNING
    title = "per-event metric/stream lookup"
    fix_hint = ("bind a handle at component init (registry.bind_*() or a "
                "per-name dict filled once) and reuse it per event")
    packages = SIM_PACKAGES

    #: Registry resolution methods on MetricsRegistry / RngRegistry.
    _LOOKUPS = frozenset({"counter", "gauge", "histogram", "timeseries",
                          "stream"})
    #: Functions that run once per component, where resolving is the fix.
    _INIT_FUNCS = frozenset({"__init__", "__post_init__", "__set_name__"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._LOOKUPS
                    and node.args):
                continue
            fn = ctx.enclosing_function(node)
            if fn is None:
                continue  # module/class level runs once per import
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name in self._INIT_FUNCS):
                continue  # resolving at construction IS the fix
            name = node.func.attr
            if isinstance(node.args[0], ast.JoinedStr):
                yield ctx.finding(
                    self, node,
                    f"{name}() name built with an f-string inside "
                    f"{self._describe(fn)} — the string is rebuilt and "
                    "re-resolved on every invocation")
            elif self._in_loop(ctx, node, fn):
                yield ctx.finding(
                    self, node,
                    f"{name}() resolved inside a loop in "
                    f"{self._describe(fn)} — hoist the handle out of "
                    "the loop (or bind it at init)")

    @staticmethod
    def _describe(fn: ast.AST) -> str:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"{fn.name}()"
        return "a lambda"

    @staticmethod
    def _in_loop(ctx: LintContext, node: ast.AST, fn: ast.AST) -> bool:
        cur = ctx.parent(node)
        while cur is not None and cur is not fn:
            if isinstance(cur, (ast.For, ast.AsyncFor, ast.While)):
                return True
            cur = ctx.parent(cur)
        return False


class WorkerScanInHandler(Rule):
    """SL008 — O(n) scan over a worker collection in a sim-clock handler.

    A loop (or comprehension) over the worker pool inside code that runs
    under the simulated clock costs O(fleet) per firing — the exact
    anti-pattern that capped the simulator at object-per-worker fleet
    sizes before the struct-of-arrays refactor.  Aggregates belong in
    ``WorkerArrays`` columns (``total_running``, ``capacity_threads``)
    or in incrementally-maintained sums; per-object scans are reserved
    for structural code (construction, registration) that runs O(1)
    times, which this rule exempts by function name.
    """

    id = "SL008"
    severity = Severity.WARNING
    title = "O(n) worker scan in a sim-clock handler"
    fix_hint = ("read WorkerArrays columns / O(1) aggregates "
                "(total_running, capacity_threads) or maintain the sum "
                "incrementally; keep per-worker-object loops in "
                "construction/registration code")
    packages = frozenset({"core"})

    #: Names that denote a worker collection: ``workers``, ``_workers``,
    #: ``all_workers``, ``workers_by_region``, ...
    _WORKERISH = re.compile(r"(^|_)workers?(_by_region)?$")
    #: Functions that run O(1) times (construction/registration/teardown),
    #: where a per-object scan is structural, not per-event.
    _STRUCTURAL = re.compile(
        r"^(__init__|__post_init__|_?register\w*|_?add_\w+|_?build\w*|"
        r"_?setup\w*|start|stop|close|shutdown)$")
    #: Wrappers unwrapped to find the scanned collection:
    #: ``sorted(workers)``, ``enumerate(self.workers)``, ...
    _WRAPPERS = frozenset({"sorted", "list", "tuple", "enumerate",
                           "reversed"})
    #: Methods unwrapped likewise: ``workers_by_region.items()``, ...
    _METHODS = frozenset({"items", "values", "keys", "get", "copy"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            scanned = None
            for it in iters:
                scanned = self._worker_collection(it)
                if scanned is not None:
                    break
            if scanned is None:
                continue
            fn = ctx.enclosing_function(node)
            if fn is None:
                continue  # module level runs once per import
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and self._STRUCTURAL.match(fn.name)):
                continue
            yield ctx.finding(
                self, node,
                f"O(n) scan over {scanned!r} in "
                f"{self._describe(fn)} — per-worker loops in sim-clock "
                "handlers stop scaling with fleet size")

    def _worker_collection(self, expr: ast.expr) -> Optional[str]:
        """Name of the worker collection ``expr`` iterates, if any."""
        # Unwrap sorted(x)/enumerate(x)/... and x.items()/x.values()/...
        while isinstance(expr, ast.Call):
            fn = expr.func
            if isinstance(fn, ast.Name) and fn.id in self._WRAPPERS:
                if not expr.args:
                    return None
                expr = expr.args[0]
            elif isinstance(fn, ast.Attribute) and fn.attr in self._METHODS:
                expr = fn.value
            else:
                return None
        if isinstance(expr, ast.Attribute):
            return expr.attr if self._WORKERISH.search(expr.attr) else None
        if isinstance(expr, ast.Name):
            return expr.id if self._WORKERISH.search(expr.id) else None
        return None

    @staticmethod
    def _describe(fn: ast.AST) -> str:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"{fn.name}()"
        return "a lambda"


#: The registry walked by the CLI; order is display order.
ALL_RULES = (
    ModuleMutableIdState(),
    WallClockLeak(),
    UnorderedIteration(),
    FloatTimeAccumulation(),
    PickleUnsafe(),
    EventHandleMisuse(),
    PerEventMetricLookup(),
    WorkerScanInHandler(),
)


def rules_by_id() -> dict:
    return {rule.id: rule for rule in ALL_RULES}


def rule_summary() -> str:
    """``"8 rules: SL001-SL008"`` — derived, never stale."""
    runs: list = []  # [first, last] of each consecutive id run
    for num in sorted(int(rule.id[2:]) for rule in ALL_RULES):
        if runs and num == runs[-1][1] + 1:
            runs[-1][1] = num
        else:
            runs.append([num, num])
    spans = ", ".join(f"SL{a:03d}" if a == b else f"SL{a:03d}-SL{b:03d}"
                      for a, b in runs)
    return f"{len(ALL_RULES)} rules: {spans}"
