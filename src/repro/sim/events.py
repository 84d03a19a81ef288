"""Event primitives for the discrete-event simulation kernel.

The kernel is a classic event-scheduling simulator: a single heap
of scheduled callbacks ordered by ``(time, seq)``.  The ``seq``
tiebreaker (push order) makes execution order fully deterministic, which
the whole reproduction relies on: two runs with the same seed produce
identical traces.

Hot-path layout
---------------
Heap entries are plain 3-tuples ``(time, seq, handle)`` so the C
implementations of ``heapq`` compare native tuples instead of calling a
Python-level ``__lt__``; ``seq`` is unique, so the handle in slot 2 is
never compared.  The :class:`ScheduledEvent` handle is a ``__slots__``
object carrying only what outlives the push: the callback, the cancelled
flag, and a queue backref for cancellation accounting.

**Lazy deletion with purge** — cancellation only flags the handle.
Cancelled entries are skipped when they surface at the head
(:meth:`EventQueue._purge_head`), and when they exceed half the queue
the heap is compacted in one pass, bounding memory under
cancellation-heavy workloads (e.g. worker failure injection).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Never compact below this many cancelled entries (compaction is O(n);
#: tiny queues are cheaper to purge lazily at the head).
_PURGE_MIN_CANCELLED = 64


class ScheduledEvent:
    """Cancellable handle for a callback scheduled at a simulation time.

    Ordering of the underlying queue is ``(time, seq)``; lower values
    run first.  Cancelled entries stay queued but are skipped
    when popped (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "callback", "cancelled", "_queue")

    def __init__(self, time: float, callback: Callable[[], None],
                 queue: Optional["EventQueue"]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._on_cancel()


#: A queue entry: ``(time, seq, handle)``.
Entry = Tuple[float, int, ScheduledEvent]


class EventQueue:
    """Deterministic min-heap of scheduled callbacks."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        """Total queued entries, including cancelled ones."""
        return len(self._heap)

    def live_count(self) -> int:
        """Queued entries that are not cancelled."""
        return len(self._heap) - self._cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, callback: Callable[[], None]
             ) -> ScheduledEvent:
        """Schedule ``callback`` at ``time`` and return a cancellable handle."""
        ev = ScheduledEvent(time, callback, self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Lazy deletion
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        self._cancelled += 1
        if (self._cancelled > _PURGE_MIN_CANCELLED
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry in one pass and re-heapify."""
        self._heap = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def _purge_head(self) -> Optional[Entry]:
        """Drop cancelled heads; return the next live entry *unpopped*.

        The single home of the lazy-deletion skip logic — ``pop``,
        ``peek_time``, and the kernel's inlined run loops all route
        through it.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            entry = heapq.heappop(heap)
            entry[2]._queue = None
            self._cancelled -= 1
        return heap[0] if heap else None

    def _pop_head(self) -> Entry:
        """Pop the entry ``_purge_head`` just returned (head is live)."""
        entry = heapq.heappop(self._heap)
        entry[2]._queue = None
        return entry

    # ------------------------------------------------------------------
    # Public pop/peek API
    # ------------------------------------------------------------------
    def pop(self) -> Optional[ScheduledEvent]:
        """Pop the next non-cancelled event, or ``None`` if the queue is empty."""
        if self._purge_head() is None:
            return None
        return self._pop_head()[2]

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when empty."""
        head = self._purge_head()
        return head[0] if head is not None else None
