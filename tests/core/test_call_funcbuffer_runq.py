"""Tests for FunctionCall, FuncBuffer ordering, and RunQ flow control."""

import pytest

from repro.core import FuncBuffer, FunctionCall, RunQ
from repro.core.call import CallIdAllocator, CallState
from repro.workloads import Criticality, FunctionSpec

from .parkrig import ParkRig


_ids = CallIdAllocator()


def make_call(name="f", submit=0.0, start=None, criticality=Criticality.NORMAL,
              deadline=60.0, **kwargs):
    spec = FunctionSpec(name=name, criticality=criticality,
                        deadline_s=deadline)
    kwargs.setdefault("call_id", _ids.allocate())
    return FunctionCall(spec=spec, submit_time=submit,
                        start_time=start if start is not None else submit,
                        region_submitted="r0", **kwargs)


class TestFunctionCall:
    def test_deadline_from_start_time(self):
        call = make_call(submit=10.0, start=100.0, deadline=60.0)
        assert call.deadline_time == 160.0

    def test_start_before_submit_rejected(self):
        with pytest.raises(ValueError):
            make_call(submit=10.0, start=5.0)

    def test_is_ready(self):
        call = make_call(submit=0.0, start=50.0)
        assert not call.is_ready(49.9)
        assert call.is_ready(50.0)

    def test_unique_ids(self):
        ids = {make_call().call_id for _ in range(100)}
        assert len(ids) == 100

    def test_sort_key_criticality_dominates(self):
        low = make_call(criticality=Criticality.LOW, deadline=1.0)
        high = make_call(criticality=Criticality.CRITICAL, deadline=86_400.0)
        assert high.sort_key() < low.sort_key()

    def test_sort_key_deadline_breaks_ties(self):
        urgent = make_call(deadline=10.0)
        relaxed = make_call(deadline=3600.0)
        assert urgent.sort_key() < relaxed.sort_key()


class TestFuncBuffer:
    def test_orders_by_criticality_then_deadline(self):
        buf = FuncBuffer("f")
        normal_urgent = make_call(criticality=Criticality.NORMAL, deadline=5.0)
        high_relaxed = make_call(criticality=Criticality.HIGH, deadline=3600.0)
        high_urgent = make_call(criticality=Criticality.HIGH, deadline=60.0)
        for c in (normal_urgent, high_relaxed, high_urgent):
            buf.push(c)
        assert buf.pop() is high_urgent
        assert buf.pop() is high_relaxed
        assert buf.pop() is normal_urgent

    def test_rejects_wrong_function(self):
        buf = FuncBuffer("other")
        with pytest.raises(ValueError):
            buf.push(make_call(name="f"))

    def test_peek_does_not_remove(self):
        buf = FuncBuffer("f")
        call = make_call()
        buf.push(call)
        assert buf.peek() is call
        assert len(buf) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FuncBuffer("f").pop()

    def test_fifo_within_equal_priority(self):
        buf = FuncBuffer("f")
        first = make_call(deadline=60.0)
        second = make_call(deadline=60.0)
        buf.push(second)
        buf.push(first)
        # Same criticality+deadline → lower call_id (earlier) first.
        assert buf.pop() is first


class TestRunQ:
    """The RunQ is pushed and popped by the scheduler's park, drain and
    recycle paths only, so these drive it through them."""

    def test_fifo(self):
        # Equal priority: the earlier call id leaves first, whichever
        # parked first.
        rig = ParkRig()
        a, b = rig.call(name="g"), rig.call(name="f")
        rig.park(b)
        rig.park(a)
        assert rig.drain(accepts=2) == [a, b]
        assert rig.drain(accepts=1) == []

    def test_push_sets_state(self):
        rig = ParkRig()
        call = rig.call()
        rig.park(call)
        assert rig.parked() == [call]
        assert call.state is CallState.RUNNABLE

    def test_capacity_enforced(self):
        # A full RunQ parks nothing more: the rest go back to their
        # buffer, gate tokens refunded.
        rig = ParkRig(runq_capacity=1)
        calls = [rig.call() for _ in range(3)]
        rig.park(*calls)
        assert rig.parked() == [calls[0]]
        assert rig.scheduler.buffered_count == 2
        assert [c.state for c in calls[1:]] == [CallState.BUFFERED] * 2

    def test_push_front_preserves_order(self):
        # A call the drain could not place is re-parked and keeps its
        # place ahead of an equal-priority call parked after it.
        rig = ParkRig()
        a, b = rig.call(name="g"), rig.call(name="f")
        rig.park(a)
        assert rig.drain(accepts=0) == []
        assert a.state is CallState.RUNNABLE
        rig.park(b)
        assert rig.drain(accepts=2) == [a, b]

    def test_fill_fraction(self):
        rig = ParkRig(runq_capacity=4)
        rig.park(rig.call())
        assert rig.scheduler.runq.fill_fraction() == 0.25
        assert len(rig.scheduler.runq) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RunQ(capacity=0)
