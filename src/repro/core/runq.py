"""RunQ: the scheduler's ordered output queue with flow control (§4.4).

The paper describes "a single ordered RunQ of function calls that will
be dispatched for execution" — ordered by the same criteria as the
FuncBuffers (criticality first, then deadline), so a burst of deferred
batch work admitted earlier cannot head-of-line-block a critical call
admitted a tick later.

Its length is the scheduler's flow-control signal: a RunQ near capacity
slows both FuncBuffer→RunQ movement and DurableQ polling, so backlog
accumulates in the durable store rather than in scheduler memory.

The heap holds FuncBuffer entries as they are (layout in
:mod:`repro.core.funcbuffer`): the scheduler parks a call by pushing
the entry it popped from the call's buffer, re-parks a refused call's
entry unchanged, and recycles an entry back into its buffer.  Those
pushes and pops live in the scheduler's per-tick loops, which keep
``len(_heap) <= capacity``; this class holds the heap and its bound.
"""

from __future__ import annotations

from typing import List

from .funcbuffer import BufferEntry


class RunQ:
    """Bounded priority queue of runnable calls."""

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._heap: List[BufferEntry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def fill_fraction(self) -> float:
        return len(self._heap) / self.capacity
