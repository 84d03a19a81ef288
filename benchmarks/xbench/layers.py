"""Per-layer ledger: layers named after ``repro`` modules, timed from outside.

A traced pass installs a :class:`LayerRecorder` before the platform is
built.  It wraps the entry points of :data:`LAYERS` and takes over the
kernel's dispatch loop, so every event callback and every wrapped call
becomes a frame with its own self time.  A frame belongs to the layer
of its class: wrapped entry points through :data:`LAYERS`, event
callbacks through the class that scheduled them.  The ``kernel`` layer
is the dispatch loop itself: traced run time minus time in callbacks.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.profile import ProfileRecorder

Target = Tuple[str, str, Tuple[str, ...]]


@dataclass(frozen=True)
class Layer:
    name: str
    #: Entry points wrapped in a traced pass, as (module, class, methods).
    entries: Tuple[Target, ...] = ()
    #: Classes whose scheduled callbacks (events) are this layer's work.
    events: Tuple[str, ...] = ()


LAYERS: Tuple[Layer, ...] = (
    Layer("kernel"),
    Layer("arrivals", events=("ArrivalGenerator", "OpenLoopClient")),
    Layer("submitter",
          (("repro.core.submitter", "SubmitterFrontend", ("submit",)),
           ("repro.core.submitter", "Submitter", ("submit",)))),
    Layer("queuelb", (("repro.core.queuelb", "QueueLB", ("route",)),)),
    Layer("durableq",
          (("repro.core.durableq", "DurableQ",
            ("enqueue", "poll", "ack", "nack", "ack_by_id", "nack_by_id",
             "extend_lease")),)),
    Layer("scheduler",
          (("repro.core.scheduler", "Scheduler",
            ("tick", "kick", "on_call_finished", "accept_remote")),)),
    Layer("workerlb", (("repro.core.workerlb", "WorkerLB", ("dispatch",)),)),
    Layer("worker",
          (("repro.core.worker", "Worker", ("execute", "can_admit")),)),
    Layer("gates",
          (("repro.core.ratelimiter", "CentralRateLimiter",
            ("try_acquire", "try_acquire_quota")),
           ("repro.core.congestion", "CongestionController",
            ("can_dispatch", "can_dispatch_state", "on_backpressure",
             "adjust")))),
    Layer("downstream",
          (("repro.downstream.service", "DownstreamService", ("call",)),),
          events=("IncidentInjector",)),
    Layer("control",
          (("repro.core.rim", "Rim", ("sample",)),
           ("repro.core.gtc", "GlobalTrafficConductor", ("update",)),
           ("repro.core.utilization", "UtilizationController", ("update",)),
           ("repro.core.locality", "LocalityOptimizer",
            ("reassign", "rebalance_workers"))),
          events=("CachedConfig", "ConfigStore")),
    Layer("metrics",
          (("repro.workloads.trace", "TraceLog", ("add_call",)),),
          events=("SamplerHub",)),
    Layer("platform",
          (("repro.core.platform", "XFaaS", ("submit", "submit_stream")),)),
)

#: Class name -> layer, for entry frames and event frames alike.
CLASS_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    for _, _cls, _ in _layer.entries:
        CLASS_LAYER[_cls] = _layer.name
    for _cls in _layer.events:
        CLASS_LAYER[_cls] = _layer.name

#: Component of an entry frame's key (event keys name a class instead).
ENTRY = "@entry"


def entry_points() -> Tuple[Target, ...]:
    return tuple(t for layer in LAYERS for t in layer.entries)


def resolve(table: Optional[Tuple[Target, ...]] = None
            ) -> List[Tuple[type, str]]:
    """Every (class, method) of the table; raises if one is missing.

    ``ProfileRecorder.install`` skips a target it cannot find, which
    would silently zero a layer after a rename.
    """
    found = []
    for mod_name, cls_name, methods in table or entry_points():
        cls = getattr(importlib.import_module(mod_name), cls_name)
        for name in methods:
            if not callable(cls.__dict__.get(name)):
                raise AttributeError(
                    f"{mod_name}.{cls_name}.{name} is not a method")
            found.append((cls, name))
    return found


class LayerRecorder(ProfileRecorder):
    """A :class:`ProfileRecorder` whose wrapped frames are marked as entries.

    An entry frame is keyed ``(ENTRY, "Class.method")``, apart from the
    ``(Class, event)`` key of the event that may invoke it, so a
    callback that is itself an entry point (``Scheduler.tick``) counts
    once, by its entry frame.
    """

    def install(self) -> None:  # type: ignore[override]
        table = entry_points()
        resolve(table)
        super().install(table)

    def _wrap(self, comp: str, name: str,
              fn: Callable[..., Any]) -> Callable[..., Any]:
        key = (ENTRY, f"{comp}.{name}")
        call = self._call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(key, fn, args, kwargs if kwargs else None)

        wrapper.__name__ = name
        wrapper.__qualname__ = f"{comp}.{name}"
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def frames(self) -> Iterator[Tuple[str, str, int, float, bool]]:
        """(class, method or event, count, self_s, is_entry) per key."""
        for (comp, name), (count, self_s, _) in self._stats.items():
            if comp == ENTRY:
                cls, _, method = name.partition(".")
                yield cls, method, int(count), self_s, True
            else:
                yield comp, name, int(count), self_s, False


def attribute(rec: LayerRecorder) -> Dict[str, Any]:
    """Per-layer calls and self seconds, plus the frames no layer owns.

    An event frame is not counted as a call when its callback is a
    wrapped entry point: the entry frame inside it already counts it.
    """
    wrapped = {(cls, name) for _, cls, methods in entry_points()
               for name in methods}
    layers = {layer.name: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    unmapped: Dict[str, float] = {}
    entry_calls: Dict[str, int] = {}
    for cls, name, count, self_s, is_entry in rec.frames():
        layer = CLASS_LAYER.get(cls)
        if layer is None:
            key = f"{cls}.{name}"
            unmapped[key] = unmapped.get(key, 0.0) + self_s
            continue
        row = layers[layer]
        row["self_s"] += self_s
        if is_entry:
            row["calls"] += count
            entry_calls[f"{cls}.{name}"] = count
        elif (cls, name) not in wrapped:
            row["calls"] += count
    layers["kernel"]["calls"] = rec.events_profiled
    return {"layers": layers, "unmapped": unmapped,
            "entry_calls": entry_calls, "callback_s": rec.total_s}


def counters(run: Any, entry_calls: Dict[str, int]) -> Dict[str, float]:
    """The layers' own counters after a run, named ``<layer>.<metric>``."""
    p = run.platform
    pools = [pool for fe in p.frontends.values()
             for pool in (fe.normal, fe.spiky)]
    accepted = sum(s.accepted_count for s in pools)
    throttled = sum(s.throttled_count for s in pools)
    shards = [q for qs in p.durableqs_by_region.values() for q in qs]
    enqueued = sum(q.enqueued_count for q in shards)
    scheds = list(p.schedulers.values())
    lbs = list(p.workerlbs.values())
    placed = sum(lb.dispatch_count for lb in lbs)
    refused = sum(lb.reject_count for lb in lbs)
    executes = entry_calls.get("Worker.execute", 0)
    dispatches = entry_calls.get("WorkerLB.dispatch", 0)
    started = sum(w.calls_started for w in p.all_workers)
    wait = p.metrics.distribution("latency.queueing")
    return {
        "submitter.throttle_ratio": throttled / max(accepted + throttled, 1),
        "submitter.spills": sum(s.spill_count for s in pools),
        "durableq.retry_ratio": (sum(q.nacked_count for q in shards)
                                 / max(enqueued, 1)),
        "durableq.lease_expiries": sum(q.expired_lease_count for q in shards),
        "durableq.wait_p50_s": wait.percentile(50) if len(wait) else 0.0,
        "durableq.wait_p99_s": wait.percentile(99) if len(wait) else 0.0,
        "scheduler.cross_region_pulls": sum(s.cross_region_pulls
                                            for s in scheds),
        "scheduler.deferred_gate_hits": sum(s.deferred_gate_hits
                                            for s in scheds),
        "workerlb.accept_ratio": placed / max(placed + refused, 1),
        "workerlb.out_of_group": sum(lb.out_of_group_dispatches
                                     for lb in lbs),
        "worker.admit_ratio": started / max(executes, 1),
        "worker.probes_per_dispatch": executes / max(dispatches, 1),
        "gates.aimd_decreases": p.congestion.decrease_count,
        "gates.aimd_increases": p.congestion.increase_count,
        "downstream.backpressure": sum(
            c.total for c in p.metrics.counters_matching("backpressure.")),
        "metrics.trace_rows": len(p.traces),
        "metrics.arena_rows": len(p.arena),
    }


def ledger(attr: Dict[str, Any], run_s: float) -> Dict[str, float]:
    """``<layer>.calls/.self_s/.share`` over a traced run of ``run_s``.

    ``kernel.self_s`` is the run time not spent in callbacks.
    """
    out: Dict[str, float] = {}
    for name, row in attr["layers"].items():
        self_s = (run_s - attr["callback_s"] if name == "kernel"
                  else row["self_s"])
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = self_s / run_s
    return out
