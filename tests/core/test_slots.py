"""Hot per-call objects must stay ``__slots__``-only.

A single stray class attribute or a refactor back to a plain dataclass
silently re-adds a per-instance ``__dict__`` (28+ bytes and a dict
lookup per attribute access) to objects created hundreds of thousands
of times per simulated hour.  These tests pin the memory layout.
"""

import pytest

from repro.core.call import CallIdAllocator, CallState, FunctionCall
from repro.core.worker import _RunningCall
from repro.metrics.timeseries import Counter, Distribution, Gauge
from repro.sim.events import ScheduledEvent
from repro.util import add_slots
from repro.workloads.spec import FunctionSpec


_ids = CallIdAllocator()


def _make_call() -> FunctionCall:
    spec = FunctionSpec(name="f", team="t")
    return FunctionCall(spec=spec, submit_time=0.0, start_time=0.0,
                        region_submitted="r0", call_id=_ids.allocate())


def _assert_slotted(obj) -> None:
    assert not hasattr(obj, "__dict__"), (
        f"{type(obj).__name__} grew a per-instance __dict__")
    with pytest.raises(AttributeError):
        obj.this_attribute_does_not_exist = 1


class TestSlottedHotObjects:
    def test_function_call_is_slotted(self):
        call = _make_call()
        _assert_slotted(call)

    def test_function_call_still_behaves_like_a_dataclass(self):
        call = _make_call()
        call.state = CallState.QUEUED  # declared fields stay assignable
        assert call.state is CallState.QUEUED
        assert call.function_name == "f"
        assert call.sort_key()[2] == call.call_id

    def test_running_call_is_slotted(self):
        call = _make_call()
        rc = _RunningCall(call=call, cpu_load=0.5, memory_mb=100.0,
                          finish_handle=None)
        _assert_slotted(rc)

    def test_scheduled_event_is_slotted(self):
        _assert_slotted(ScheduledEvent(0.0, lambda: None, None))

    def test_metrics_primitives_are_slotted(self):
        _assert_slotted(Counter("c"))
        _assert_slotted(Gauge("g"))
        _assert_slotted(Distribution("d"))


class TestAddSlotsHelper:
    def test_rejects_existing_slots(self):
        import dataclasses

        @dataclasses.dataclass
        class Pre:
            __slots__ = ("x",)
            x: int

        with pytest.raises(TypeError):
            add_slots(Pre)

    def test_defaults_survive_the_rebuild(self):
        import dataclasses

        @add_slots
        @dataclasses.dataclass
        class Point:
            x: float
            y: float = 2.5

        p = Point(1.0)
        assert (p.x, p.y) == (1.0, 2.5)
        _assert_slotted(p)
