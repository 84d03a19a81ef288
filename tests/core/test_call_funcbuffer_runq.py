"""Tests for FunctionCall, FuncBuffer ordering, and RunQ flow control."""

import pytest

from repro.core import FuncBuffer, FunctionCall, RunQ
from repro.core.call import CallIdAllocator, CallState
from repro.workloads import Criticality, FunctionSpec


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
    def test_fifo(self):
        q = RunQ(capacity=10)
        a, b = make_call(), make_call()
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b
        assert q.pop() is None

    def test_push_sets_state(self):
        q = RunQ()
        call = make_call()
        q.push(call)
        assert call.state is CallState.RUNNABLE

    def test_capacity_enforced(self):
        q = RunQ(capacity=1)
        q.push(make_call())
        assert q.full
        with pytest.raises(OverflowError):
            q.push(make_call())

    def test_push_front_preserves_order(self):
        q = RunQ()
        a, b = make_call(), make_call()
        q.push(b)
        q.push_front(a)
        assert q.pop() is a

    def test_fill_fraction(self):
        q = RunQ(capacity=4)
        q.push(make_call())
        assert q.fill_fraction() == 0.25
        assert q.free_space == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RunQ(capacity=0)
