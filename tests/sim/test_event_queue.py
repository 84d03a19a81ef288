"""EventQueue internals: lazy deletion, purge, zero-delay ordering, compaction."""

import pytest

from repro.sim.events import _PURGE_MIN_CANCELLED, EventQueue, ScheduledEvent
from repro.sim.kernel import Simulator


def noop():
    pass


class TestPurgeHead:
    def test_peek_skips_cancelled_head(self):
        q = EventQueue()
        first = q.push(1.0, noop)
        q.push(2.0, noop)
        first.cancel()
        assert q.peek_time() == 2.0

    def test_pop_skips_cancelled_runs(self):
        q = EventQueue()
        handles = [q.push(float(i), noop) for i in range(6)]
        for h in handles[::2]:
            h.cancel()
        popped = []
        while True:
            ev = q.pop()
            if ev is None:
                break
            popped.append(ev.time)
        assert popped == [1.0, 3.0, 5.0]

    def test_purge_merges_zero_lane_before_heap(self):
        # Keys order by (time, seq): b's earlier time runs first, then
        # a's lower seq beats c at the same time.
        q = EventQueue()
        a = q.push(5.0, noop)           # (5.0, 0)
        b = q.push(3.0, noop)           # (3.0, 1) -> runs first
        c = q.push(5.0, noop)           # (5.0, 2) -> after a
        order = [q.pop() for _ in range(3)]
        assert order == [b, a, c]

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert q.live_count() == 0

    def test_cancelled_only_queue_drains_to_none(self):
        q = EventQueue()
        h = q.push(1.0, noop)
        h.cancel()
        assert q.peek_time() is None
        assert q.pop() is None
        assert q.live_count() == 0


class TestLiveCount:
    def test_live_count_excludes_cancelled(self):
        q = EventQueue()
        handles = [q.push(float(i), noop) for i in range(5)]
        assert q.live_count() == 5
        handles[0].cancel()
        handles[3].cancel()
        assert q.live_count() == 3
        assert len(q) == 5  # raw entries still queued (lazy deletion)

    def test_pending_events_reports_live_only(self):
        sim = Simulator()
        handles = [sim.call_after(float(i + 1), noop) for i in range(4)]
        zero = sim.call_after(0.0, noop)
        assert sim.pending_events() == 5
        handles[1].cancel()
        zero.cancel()
        assert sim.pending_events() == 3

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        h = q.push(1.0, noop)
        q.push(2.0, noop)
        h.cancel()
        h.cancel()
        assert q.live_count() == 1


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self):
        q = EventQueue()
        n = 4 * _PURGE_MIN_CANCELLED
        handles = [q.push(float(i), noop) for i in range(n)]
        # Cancel from the back so nothing is purged at the head.
        for h in handles[:_PURGE_MIN_CANCELLED:-1]:
            h.cancel()
        # A cancelled majority triggered at least one compaction pass,
        # so the queue holds far fewer raw entries than were pushed.
        assert q.live_count() == _PURGE_MIN_CANCELLED + 1
        assert len(q) < n // 2

    def test_order_survives_compaction(self):
        q = EventQueue()
        n = 4 * _PURGE_MIN_CANCELLED
        handles = [q.push(float(i), noop) for i in range(n)]
        keep = [h for i, h in enumerate(handles) if i % 4 == 0]
        for i, h in enumerate(handles):
            if i % 4 != 0:
                h.cancel()
        order = []
        while True:
            ev = q.pop()
            if ev is None:
                break
            order.append(ev)
        assert order == keep

    def test_small_queues_never_compact(self):
        q = EventQueue()
        handles = [q.push(float(i), noop) for i in range(10)]
        for h in handles:
            h.cancel()
        # Below the minimum there is nothing to compact away eagerly.
        assert len(q) == 10
        assert q.live_count() == 0


class TestZeroDelayFastPath:
    def test_zero_delay_chain_runs_in_fifo_order(self):
        sim = Simulator()
        out = []
        sim.call_after(0.0, lambda: out.append("a"))
        sim.call_after(0.0, lambda: out.append("b"))
        sim.call_at(0.0, lambda: out.append("heap"))
        sim.run_until(0.0)
        # Same time: push order (seq) decides, so the two
        # call_after(0) entries pushed first run first.
        assert out == ["a", "b", "heap"]

    def test_zero_delay_interleaves_with_timed_events(self):
        sim = Simulator()
        out = []

        def at_five():
            out.append(("t5", sim.now))
            sim.call_after(0.0, lambda: out.append(("cont", sim.now)))

        sim.call_at(5.0, at_five)
        sim.call_at(6.0, lambda: out.append(("t6", sim.now)))
        sim.run_until(10.0)
        assert out == [("t5", 5.0), ("cont", 5.0), ("t6", 6.0)]


class TestHandle:
    def test_handle_is_slotted(self):
        ev = ScheduledEvent(0.0, noop, None)
        assert not hasattr(ev, "__dict__")
        with pytest.raises(AttributeError):
            ev.arbitrary_attribute = 1

    def test_pop_clears_queue_backref(self):
        q = EventQueue()
        h = q.push(1.0, noop)
        assert q.pop() is h
        assert h._queue is None
        h.cancel()  # cancel after pop must not corrupt the counter
        assert q.live_count() == 0
