"""FuncBuffer: the scheduler's per-function in-memory buffer (§4.4).

Calls retrieved from DurableQs are merged into one buffer per function,
ordered **first by criticality, then by execution deadline** — under a
capacity crunch the important calls run first, and among equals the most
urgent deadline wins.

Heap layout
-----------
Heap entries are flat 4-tuples ``(-criticality, deadline, call_id,
call)``: the call's :meth:`~repro.core.call.FunctionCall.sort_key`
spread out, then the call.  Lexicographic order on the flat tuple is
the order on the nested ``(sort_key, call)`` pair, but ``heapq``
compares it in one pass instead of an equality pass and a less-than
pass over an inner tuple.  Call ids are unique once assigned (one
allocator per platform), so the call in slot 3 is never compared.

:meth:`FuncBuffer.push` is the only place an entry is built.  An entry
is immutable and the :class:`~repro.core.runq.RunQ` holds the same
entries, so the scheduler's per-tick loops move a popped entry between
a buffer's ``_heap`` and the RunQ's as it is.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .call import FunctionCall

#: ``(-criticality, deadline, call_id, call)`` — see the module docstring.
BufferEntry = Tuple[float, float, int, FunctionCall]


class FuncBuffer:
    """Priority buffer of pending calls for a single function."""

    def __init__(self, function_name: str) -> None:
        self.function_name = function_name
        self._heap: List[BufferEntry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, call: FunctionCall) -> None:
        if call.function_name != self.function_name:
            raise ValueError(
                f"call for {call.function_name!r} pushed into buffer of "
                f"{self.function_name!r}")
        crit, deadline, call_id = call.sort_key()
        heapq.heappush(self._heap, (crit, deadline, call_id, call))

    def peek(self) -> Optional[FunctionCall]:
        return self._heap[0][3] if self._heap else None

    def pop(self) -> FunctionCall:
        if not self._heap:
            raise IndexError(f"FuncBuffer {self.function_name!r} is empty")
        return heapq.heappop(self._heap)[3]
