"""FuncBuffer: the scheduler's per-function in-memory buffer (§4.4).

Calls retrieved from DurableQs are merged into one buffer per function,
ordered **first by criticality, then by execution deadline** — under a
capacity crunch the important calls run first, and among equals the most
urgent deadline wins.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .call import FunctionCall


class FuncBuffer:
    """Priority buffer of pending calls for a single function."""

    def __init__(self, function_name: str) -> None:
        self.function_name = function_name
        self._heap: List[Tuple[Tuple[float, float, int], FunctionCall]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, call: FunctionCall) -> None:
        if call.function_name != self.function_name:
            raise ValueError(
                f"call for {call.function_name!r} pushed into buffer of "
                f"{self.function_name!r}")
        heapq.heappush(self._heap, (call.sort_key(), call))

    def peek(self) -> Optional[FunctionCall]:
        return self._heap[0][1] if self._heap else None

    def pop(self) -> FunctionCall:
        if not self._heap:
            raise IndexError(f"FuncBuffer {self.function_name!r} is empty")
        return heapq.heappop(self._heap)[1]
