"""The lifecycle (typestate) rules, backed by ``simlint.typestate``.

All three rules share one
:class:`~repro.simlint.typestate.TypestateAnalysis` per lint run
(cached on the :class:`~repro.simlint.engine.Project`), so the call
graph, the per-function abstract interpretation, and the summary
fixpoint are computed once however many rules are selected.
"""

from __future__ import annotations

from typing import Iterator

from .engine import Finding, Project, ProjectRule, Severity
from .typestate import typestate_analysis


class _TypestateRule(ProjectRule):
    """Shared dispatch: pick this rule's findings out of the analysis."""

    packages = frozenset({"core", "sim", "metrics", "cluster",
                          "downstream", "triggers", "workloads",
                          "baselines", "sweep"})

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = typestate_analysis(project)
        for rule_id, ctx, node, message in analysis.findings():
            if rule_id == self.id:
                yield ctx.finding(self, node, message)


class EventHandleLifecycle(_TypestateRule):
    """SL013 — event-handle lifecycle violations (typestate).

    The semantic superset of SL006's pattern matches: where SL006 flags
    a literal ``handle.cancelled = False`` store or a negative delay
    written in one expression, SL013 follows the handle — a second
    ``cancel()`` reached through an alias or a helper, a *non*-literal
    store to ``.cancelled``, rebinding a name whose current handle is
    still armed (double-arm), and an armed handle bound to a local that
    neither escapes nor is cancelled on some path.  Unbound
    ``sim.call_after(...)`` statements are deliberately legal — that is
    the normal fire-and-forget idiom.
    """

    id = "SL013"
    severity = Severity.ERROR
    title = "event-handle lifecycle violation (FSM: armed -> cancelled)"
    fix_hint = ("treat handles as one-shot: cancel at most once, never "
                "re-arm via .cancelled, and either store an armed "
                "handle where it can be cancelled or drop the binding "
                "entirely (fire-and-forget)")


class LeaseProtocolViolation(_TypestateRule):
    """SL014 — DurableQ lease-protocol violations (typestate).

    ``poll()`` leases calls under at-least-once delivery; each leased
    call must settle exactly once (``polled -> acked | nacked``) and
    ``extend_lease`` is legal only while still ``polled``.  The rule
    tracks poll results through iteration, aliases, branches, and
    helper calls (via summaries), and reports double-ack, ack+nack on
    the same call, double-nack, extend-after-settle, a dropped poll
    result, and a leased call that can reach the end of a function
    unsettled and unowned on some path.
    """

    id = "SL014"
    severity = Severity.ERROR
    title = "DurableQ lease-protocol violation (settle exactly once)"
    fix_hint = ("settle every leased call exactly once on every path "
                "(ack on success, nack on failure, try/finally if "
                "needed); extend_lease only before settling; hand "
                "unsettled calls to an owner (buffer/inflight map) "
                "before returning")


class SnapshotMergeDiscipline(_TypestateRule):
    """SL015 — metrics snapshot/merge discipline (typestate).

    ``snapshot()`` captures a registry at a point in time; the capture
    pairs with at most one ``merge``/``from_snapshot``.  The rule
    reports merging the same snapshot twice (every metric would
    double-count), mutating the source registry between ``snapshot()``
    and the snapshot's merge (the capture goes stale and the mutation
    is lost to whoever merges it), and a registry merged into itself.
    """

    id = "SL015"
    severity = Severity.ERROR
    title = "snapshot/merge discipline violation (capture pairs once)"
    fix_hint = ("merge each snapshot exactly once; finish mutating a "
                "registry before capturing it (or re-snapshot after "
                "the mutation); never reg.merge(reg)")


TYPESTATE_RULES = (
    EventHandleLifecycle(),
    LeaseProtocolViolation(),
    SnapshotMergeDiscipline(),
)
