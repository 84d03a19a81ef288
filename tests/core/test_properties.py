"""Property-based tests of core invariants (hypothesis)."""

import heapq
import math

from hypothesis import given, settings, strategies as st

from repro.cluster import NetworkModel
from repro.core import FuncBuffer, FunctionCall, TokenBucket
from repro.core.call import CallIdAllocator
from repro.core.gtc import compute_traffic_matrix
from repro.workloads import Criticality, FunctionSpec

from .parkrig import ParkRig

criticalities = st.sampled_from(list(Criticality))
deadlines = st.floats(min_value=1.0, max_value=86_400.0)
#: Few distinct deadlines, so (criticality, deadline) pairs repeat and
#: the call id decides the order.
repeated_deadlines = st.sampled_from([60.0, 600.0, 3600.0])
#: A heap script: push a new call, pop one, or push back the last pop.
heap_ops = st.lists(
    st.one_of(st.tuples(st.just("push"), criticalities, repeated_deadlines),
              st.just(("pop",)), st.just(("push_front",))),
    min_size=1, max_size=60)
#: A RunQ script over three functions: park a new call, let the kick
#: drain place one (re-parking the calls it refuses), or recycle every
#: parked call to its buffer and park them all again.
runq_ops = st.lists(
    st.one_of(st.tuples(st.just("park"), criticalities, repeated_deadlines,
                        st.sampled_from(["f0", "f1", "f2"])),
              st.just(("drain",)), st.just(("recycle",))),
    min_size=1, max_size=60)


_ids = CallIdAllocator()


def _call(criticality, deadline, name="f"):
    spec = FunctionSpec(name=name, criticality=criticality,
                        deadline_s=deadline)
    return FunctionCall(spec=spec, submit_time=0.0, start_time=0.0,
                        region_submitted="r", call_id=_ids.allocate())


def _run_script(ops, push, pop):
    """Run ``ops`` on a queue and on a reference heapq over
    ``(call.sort_key(), call)``; return both pop sequences."""
    ref = []
    got, want = [], []
    last = None
    for op in ops:
        if op[0] == "push":
            call = _call(op[1], op[2])
            push(call)
            heapq.heappush(ref, (call.sort_key(), call))
        elif op[0] == "pop" and ref:
            last = pop()
            got.append(last)
            want.append(heapq.heappop(ref)[1])
        elif op[0] == "push_front" and last is not None:
            push(last)
            heapq.heappush(ref, (last.sort_key(), last))
            last = None
    while ref:
        got.append(pop())
        want.append(heapq.heappop(ref)[1])
    return got, want


class TestFuncBufferProperties:
    @given(st.lists(st.tuples(criticalities, deadlines), min_size=1,
                    max_size=40))
    @settings(max_examples=60)
    def test_pop_order_is_criticality_then_deadline(self, items):
        buf = FuncBuffer("f")
        for criticality, deadline in items:
            buf.push(_call(criticality, deadline))
        popped = []
        while len(buf):
            popped.append(buf.pop())
        keys = [(-c.criticality, c.deadline_time) for c in popped]
        assert keys == sorted(keys)

    @given(st.lists(st.tuples(criticalities, deadlines), min_size=1,
                    max_size=40))
    @settings(max_examples=30)
    def test_push_pop_conserves_calls(self, items):
        buf = FuncBuffer("f")
        calls = [_call(c, d) for c, d in items]
        for call in calls:
            buf.push(call)
        popped = set()
        while len(buf):
            popped.add(buf.pop().call_id)
        assert popped == {c.call_id for c in calls}


class TestFlatHeapSequence:
    """The flat heap entries pop call-for-call what a heap of nested
    ``(sort_key, call)`` pairs pops, ties on (criticality, deadline)
    included."""

    @given(heap_ops)
    @settings(max_examples=80)
    def test_funcbuffer_pops_reference_sequence(self, ops):
        buf = FuncBuffer("f")
        got, want = _run_script(ops, buf.push, buf.pop)
        assert [c.call_id for c in got] == [c.call_id for c in want]
        assert len(buf) == 0

    @given(runq_ops)
    @settings(max_examples=80)
    def test_runq_pops_reference_sequence(self, ops):
        # The scheduler's park, drain and recycle paths move the flat
        # entries themselves; the drain must place calls in exactly the
        # order the reference heap pops them.
        rig = ParkRig()
        ref = []
        got, want = [], []
        for op in ops:
            if op[0] == "park":
                call = rig.call(op[1], op[2], name=op[3])
                rig.park(call)
                heapq.heappush(ref, (call.sort_key(), call))
            elif op[0] == "drain" and ref:
                got += rig.drain(accepts=1)
                want.append(heapq.heappop(ref)[1])
            elif op[0] == "recycle":
                rig.scheduler._recycle_runq()
                assert len(rig.scheduler.runq) == 0
                rig.park()
            assert len(rig.scheduler.runq) == len(ref)
        got += rig.drain(accepts=len(ref))
        want += [heapq.heappop(ref)[1] for _ in range(len(ref))]
        assert [c.call_id for c in got] == [c.call_id for c in want]
        assert len(rig.scheduler.runq) == 0

    @given(st.lists(st.tuples(st.integers(0, 2), criticalities,
                              repeated_deadlines), min_size=1, max_size=40),
           st.lists(st.tuples(st.integers(0, 2), criticalities,
                              repeated_deadlines), max_size=20))
    @settings(max_examples=40)
    def test_recycle_leaves_buffers_in_sort_key_order(self, parked,
                                                      buffered):
        # The scheduler recycles its RunQ into the FuncBuffer heaps
        # directly; every buffer must still pop in sort_key order.
        # Functions f0 and f1 keep their resolved gate states; f2 loses
        # them, so _demote resolves them again.
        rig = ParkRig()
        sched = rig.scheduler
        expected = {f"f{i}": set() for i in range(3)}
        calls = [rig.call(criticality, deadline, name=f"f{i}")
                 for i, criticality, deadline in parked]
        rig.park(*calls)
        assert len(sched.runq) == len(calls)
        sched._gate_states.pop("f2", None)
        for call in calls:
            expected[call.function_name].add(call.call_id)
        for i, criticality, deadline in buffered:
            call = rig.call(criticality, deadline, name=f"f{i}")
            rig.buffer(call)
            expected[call.function_name].add(call.call_id)
        sched._recycle_runq()
        assert len(sched.runq) == 0
        assert sched.buffered_count == len(parked) + len(buffered)
        for name, ids in expected.items():
            buf = sched._buffers.get(name)
            popped = [buf.pop() for _ in range(len(buf))] if buf else []
            assert {c.call_id for c in popped} == ids
            keys = [c.sort_key() for c in popped]
            assert keys == sorted(keys)


class TestRunQProperties:
    @given(st.lists(st.tuples(criticalities, deadlines), min_size=1,
                    max_size=30))
    @settings(max_examples=40)
    def test_priority_pop(self, items):
        rig = ParkRig()
        rig.park(*(rig.call(criticality, deadline)
                   for criticality, deadline in items))
        out = [(-call.criticality, call.deadline_time)
               for call in rig.drain(accepts=len(items))]
        assert len(out) == len(items)
        assert out == sorted(out)


class TestTokenBucketProperties:
    @given(st.floats(min_value=0.01, max_value=1000.0),
           st.floats(min_value=0.5, max_value=60.0),
           st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_never_negative_and_capacity_bounded(self, rate, burst, gaps):
        bucket = TokenBucket(rate=rate, burst_s=burst)
        t = 0.0
        for gap in gaps:
            t += gap
            bucket.try_take(t)
            assert bucket.tokens >= 0.0
            assert bucket.tokens <= bucket.capacity + 1e-9

    @given(st.floats(min_value=0.5, max_value=100.0),
           st.integers(min_value=1, max_value=400))
    @settings(max_examples=40)
    def test_long_run_rate_respected(self, rate, n_attempts):
        # Over a horizon, grants never exceed capacity + rate × horizon.
        bucket = TokenBucket(rate=rate, burst_s=5.0)
        horizon = 30.0
        grants = 0
        for i in range(n_attempts):
            t = horizon * i / n_attempts
            if bucket.try_take(t):
                grants += 1
        assert grants <= bucket.capacity + rate * horizon + 1


class TestTrafficMatrixProperties:
    region_names = [f"r{i}" for i in range(5)]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5),
                    min_size=5, max_size=5),
           st.lists(st.floats(min_value=1.0, max_value=1e4),
                    min_size=5, max_size=5))
    @settings(max_examples=60)
    def test_rows_normalized_and_nonnegative(self, backlogs, capacities):
        net = NetworkModel(self.region_names)
        matrix = compute_traffic_matrix(
            dict(zip(self.region_names, backlogs)),
            dict(zip(self.region_names, capacities)), net)
        for region, row in matrix.items():
            assert all(f >= -1e-12 for f in row.values())
            assert math.isclose(sum(row.values()), 1.0, rel_tol=1e-6)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5),
                    min_size=5, max_size=5))
    @settings(max_examples=40)
    def test_equal_capacity_no_self_abandonment(self, backlogs):
        # A region with backlog always keeps pulling some of its own
        # work or exports it fully to others; nothing is dropped.
        net = NetworkModel(self.region_names)
        capacities = {r: 100.0 for r in self.region_names}
        backlog = dict(zip(self.region_names, backlogs))
        matrix = compute_traffic_matrix(backlog, capacities, net)
        for j, b in backlog.items():
            if b > 1e-6:  # subnormal backlogs underflow in row division
                pulled = sum(matrix[i].get(j, 0.0) for i in matrix)
                assert pulled > 0
