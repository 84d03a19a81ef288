"""Orchestration-workflow triggers (§3.1: one of the supported triggers).

A workflow is an ordered chain of functions: step *n+1* is submitted
when step *n* completes successfully.  Failed steps (retries exhausted)
abort the workflow instance.  The engine hangs off the platform's
completion listener — it never touches scheduler internals, exactly like
the real orchestration products layered on XFaaS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.call import CallIdAllocator, CallOutcome, FunctionCall


@dataclass(frozen=True)
class WorkflowSpec:
    """An ordered chain of function names.

    ``propagate_zones`` implements §4.7's dynamic labeling: each step's
    output carries the classification level of the zone it executed in,
    so the next step's *source* level is the running maximum — data can
    only flow onward into functions at equal or higher levels
    (Bell–LaPadula), and a down-classified step aborts the instance.
    """

    name: str
    steps: Sequence[str]
    propagate_zones: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workflow name must be non-empty")
        if not self.steps:
            raise ValueError("workflow needs at least one step")


@dataclass
class WorkflowInstance:
    """One execution of a workflow."""

    instance_id: int
    spec: WorkflowSpec
    started_at: float
    current_step: int = 0
    finished_at: Optional[float] = None
    status: str = "running"   # running | completed | failed
    #: Bell–LaPadula level the instance's data currently carries.
    data_level: int = 0

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class WorkflowEngine:
    """Drives workflow instances through an XFaaS platform."""

    def __init__(self, platform) -> None:
        self.platform = platform
        self._workflows: Dict[str, WorkflowSpec] = {}
        #: call_id → (instance, step index) for in-flight steps.
        self._inflight: Dict[int, tuple] = {}
        self.instances: List[WorkflowInstance] = []
        # Per-engine ids: instance numbering restarts with each engine,
        # keeping back-to-back runs replayable
        # (``test_back_to_back_runs_identical``).
        self._instance_ids = CallIdAllocator()
        platform.add_completion_listener(self._on_completion)

    def register(self, spec: WorkflowSpec) -> None:
        for step in spec.steps:
            if step not in self.platform.functions():
                raise KeyError(
                    f"workflow step {step!r} is not a registered function")
        self._workflows[spec.name] = spec

    def start(self, workflow_name: str,
              source_level: int = 0) -> WorkflowInstance:
        """Begin one instance; returns its handle.

        ``source_level`` is the classification of the data the workflow
        starts from (§4.7); it propagates through the chain.
        """
        spec = self._workflows.get(workflow_name)
        if spec is None:
            raise KeyError(f"unknown workflow {workflow_name!r}")
        instance = WorkflowInstance(instance_id=self._instance_ids.allocate(),
                                    spec=spec,
                                    started_at=self.platform.sim.now,
                                    data_level=source_level)
        self.instances.append(instance)
        self._submit_step(instance)
        return instance

    def _submit_step(self, instance: WorkflowInstance) -> None:
        step_fn = instance.spec.steps[instance.current_step]
        source_level = (instance.data_level
                        if instance.spec.propagate_zones else 0)
        call = self.platform.submit(step_fn, source_level=source_level)
        if call is None:
            # Throttled at submission: the workflow fails fast (callers
            # are expected to retry the whole instance).
            instance.status = "failed"
            instance.finished_at = self.platform.sim.now
            return
        self._inflight[call.call_id] = (instance, instance.current_step)

    def _on_completion(self, call: FunctionCall,
                       outcome: CallOutcome) -> None:
        entry = self._inflight.pop(call.call_id, None)
        if entry is None:
            return
        instance, step = entry
        now = self.platform.sim.now
        if outcome is not CallOutcome.OK:
            instance.status = "failed"
            instance.finished_at = now
            return
        if instance.spec.propagate_zones:
            # §4.7: output data carries the executing zone's level.
            instance.data_level = max(instance.data_level,
                                      call.spec.isolation_level)
        if step + 1 >= len(instance.spec.steps):
            instance.status = "completed"
            instance.finished_at = now
            return
        instance.current_step = step + 1
        self._submit_step(instance)

    # ------------------------------------------------------------------
    def completed(self) -> List[WorkflowInstance]:
        return [i for i in self.instances if i.status == "completed"]

    def failed(self) -> List[WorkflowInstance]:
        return [i for i in self.instances if i.status == "failed"]
