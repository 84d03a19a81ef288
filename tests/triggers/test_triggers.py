"""Tests for the trigger substrates: timers, streams, warehouse, workflows."""

import math

import pytest

from repro import Simulator, XFaaS, build_topology
from repro.triggers import (
    DailySchedule,
    DataStream,
    DataWarehouse,
    IntervalSchedule,
    StreamTriggerService,
    TableSpec,
    TimerTriggerService,
    WorkflowEngine,
    WorkflowSpec,
    midnight_pipelines,
)
from repro.workloads import FunctionSpec, LogNormal, ResourceProfile

DAY = 86_400.0


def profile(exec_s=0.2):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(20.0), sigma=0.2),
        memory_mb=LogNormal(mu=math.log(32.0), sigma=0.2),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.2))


class TestSchedules:
    def test_interval_next_fire(self):
        s = IntervalSchedule(interval_s=60.0, offset_s=10.0)
        assert s.next_fire(0.0) == 10.0
        assert s.next_fire(10.0) == 70.0
        assert s.next_fire(125.0) == 130.0

    def test_daily_next_fire(self):
        s = DailySchedule(times_of_day_s=[3600.0, 7200.0])
        assert s.next_fire(0.0) == 3600.0
        assert s.next_fire(3600.0) == 7200.0
        assert s.next_fire(8000.0) == DAY + 3600.0

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalSchedule(interval_s=0.0)
        with pytest.raises(ValueError):
            DailySchedule(times_of_day_s=[])
        with pytest.raises(ValueError):
            DailySchedule(times_of_day_s=[DAY + 1])


class TestTimerTriggerService:
    def test_fires_on_interval(self):
        sim = Simulator(seed=1)
        submitted = []
        svc = TimerTriggerService(sim, submitted.append)
        svc.register("cron-job", IntervalSchedule(interval_s=100.0))
        sim.run_until(950.0)
        assert svc.fired_count == 9
        assert submitted == ["cron-job"] * 9

    def test_campaign_fan_out(self):
        sim = Simulator(seed=2)
        submitted = []
        svc = TimerTriggerService(sim, submitted.append)
        svc.register("campaign", DailySchedule([1000.0]), calls_per_fire=50)
        sim.run_until(2000.0)
        assert len(submitted) == 50

    def test_stop_at(self):
        sim = Simulator(seed=3)
        submitted = []
        svc = TimerTriggerService(sim, submitted.append)
        svc.register("j", IntervalSchedule(interval_s=10.0), stop_at=35.0)
        sim.run_until(100.0)
        assert svc.fired_count == 3  # t=10, 20, 30


class TestDataStream:
    def test_produce_consume_order(self):
        sim = Simulator()
        stream = DataStream(sim, "s", partitions=1)
        for _ in range(5):
            stream.produce(partition=0)
        events = stream.consume(0, 10)
        assert [e.offset for e in events] == [0, 1, 2, 3, 4]
        assert stream.lag() == 0

    def test_round_robin_partitioning(self):
        sim = Simulator()
        stream = DataStream(sim, "s", partitions=3)
        for _ in range(9):
            stream.produce()
        assert all(stream.lag(p) == 3 for p in range(3))

    def test_trigger_service_submits_per_event(self):
        sim = Simulator(seed=4)
        stream = DataStream(sim, "s", partitions=2)
        submitted = []
        StreamTriggerService(sim, stream, "logger", submitted.append,
                             poll_interval_s=1.0)
        task = sim.every(0.5, lambda: stream.produce())
        sim.run_until(60.0)
        task.cancel()
        sim.run_until(70.0)
        assert len(submitted) == stream.produced_count
        assert stream.lag() == 0

    def test_trigger_delay_bounded_by_poll_interval(self):
        sim = Simulator(seed=5)
        stream = DataStream(sim, "s", partitions=1)
        svc = StreamTriggerService(sim, stream, "f", lambda n: None,
                                   poll_interval_s=2.0)
        sim.every(0.25, lambda: stream.produce())
        sim.run_until(120.0)
        assert svc.trigger_delays
        assert max(svc.trigger_delays) <= 2.5


class TestDataWarehouse:
    def test_landing_fires_subscribers_per_partition(self):
        sim = Simulator(seed=6)
        wh = DataWarehouse(sim)
        wh.register_table(TableSpec(name="t", lands_at_s=1000.0,
                                    partitions=25, jitter_s=0.0))
        wh.subscribe("t", "processor")
        submitted = []
        wh.start(submitted.append, days=1)
        sim.run_until(2000.0)
        assert submitted == ["processor"] * 25
        assert len(wh.landings) == 1

    def test_multi_day_scheduling(self):
        sim = Simulator(seed=7)
        wh = DataWarehouse(sim)
        wh.register_table(TableSpec(name="t", lands_at_s=100.0,
                                    partitions=1, jitter_s=0.0))
        wh.subscribe("t", "f")
        count = []
        wh.start(lambda n: count.append(n), days=3)
        sim.run_until(3 * DAY)
        assert len(count) == 3

    def test_midnight_pipelines_cluster_near_midnight(self):
        tables = midnight_pipelines(n_tables=10, spread_s=3600.0)
        assert len(tables) == 10
        for t in tables:
            # within ±1h of midnight (wrapping)
            dist = min(t.lands_at_s, DAY - t.lands_at_s)
            assert dist <= 3600.0

    def test_duplicate_table_rejected(self):
        sim = Simulator()
        wh = DataWarehouse(sim)
        wh.register_table(TableSpec(name="t", lands_at_s=0.0))
        with pytest.raises(ValueError):
            wh.register_table(TableSpec(name="t", lands_at_s=0.0))

    def test_unknown_table_subscription(self):
        sim = Simulator()
        with pytest.raises(KeyError):
            DataWarehouse(sim).subscribe("ghost", "f")


class TestWorkflowEngine:
    def _platform(self, seed=8):
        sim = Simulator(seed=seed)
        topo = build_topology(n_regions=1, workers_per_unit=3)
        platform = XFaaS(sim, topo)
        for name in ("extract", "transform", "load"):
            platform.register_function(
                FunctionSpec(name=name, profile=profile()))
        return sim, platform

    def test_steps_run_in_order(self):
        sim, platform = self._platform()
        engine = WorkflowEngine(platform)
        engine.register(WorkflowSpec(name="etl",
                                     steps=("extract", "transform", "load")))
        instance = engine.start("etl")
        sim.run_until(120.0)
        assert instance.status == "completed"
        assert instance.duration > 0
        # The steps executed sequentially: dispatch times are ordered.
        by_fn = {t.function: t for t in platform.traces.completed()}
        assert by_fn["extract"].dispatch_time < \
            by_fn["transform"].dispatch_time < by_fn["load"].dispatch_time

    def test_failed_step_aborts_workflow(self):
        sim, platform = self._platform(seed=9)
        engine = WorkflowEngine(platform)
        engine.register(WorkflowSpec(name="etl",
                                     steps=("extract", "transform", "load")))
        # Make every execution of "transform" fail terminally.
        from repro.core import CallOutcome
        for region, scheduler in platform.schedulers.items():
            original = scheduler.on_call_finished

            def wrapped(call, outcome, original=original):
                if call.function_name == "transform":
                    outcome = CallOutcome.ERROR
                original(call, outcome)
            for worker in platform.workers_by_region[region]:
                worker.on_finish = wrapped
        instance = engine.start("etl")
        sim.run_until(300.0)
        assert instance.status == "failed"
        assert not any(t.function == "load"
                       for t in platform.traces.completed())

    def test_many_concurrent_instances(self):
        sim, platform = self._platform(seed=10)
        engine = WorkflowEngine(platform)
        engine.register(WorkflowSpec(name="etl",
                                     steps=("extract", "load")))
        for _ in range(25):
            engine.start("etl")
        sim.run_until(300.0)
        assert len(engine.completed()) == 25

    def test_unknown_step_rejected(self):
        sim, platform = self._platform(seed=11)
        engine = WorkflowEngine(platform)
        with pytest.raises(KeyError):
            engine.register(WorkflowSpec(name="w", steps=("ghost",)))

    def test_unknown_workflow_rejected(self):
        sim, platform = self._platform(seed=12)
        engine = WorkflowEngine(platform)
        with pytest.raises(KeyError):
            engine.start("ghost")

    def test_back_to_back_runs_identical(self):
        # Regression: instance ids used to come from a module-level
        # counter, so a second engine in the same process numbered
        # instances differently from a fresh process.
        def run():
            sim, platform = self._platform(seed=15)
            engine = WorkflowEngine(platform)
            engine.register(WorkflowSpec(name="etl",
                                         steps=("extract", "load")))
            for _ in range(4):
                engine.start("etl")
            sim.run_until(300.0)
            return [(i.instance_id, i.status, i.started_at, i.finished_at)
                    for i in engine.instances]

        first, second = run(), run()
        assert first == second
        assert [i for i, _, _, _ in first] == [1, 2, 3, 4]


class TestZonePropagation:
    """§4.7: labels propagate dynamically through RPC chains."""

    def _platform(self, seed=13):
        from repro import Simulator, XFaaS, build_topology
        sim = Simulator(seed=seed)
        topo = build_topology(n_regions=1, workers_per_unit=3)
        platform = XFaaS(sim, topo)
        platform.register_function(FunctionSpec(
            name="public-read", isolation_level=0, profile=profile()))
        platform.register_function(FunctionSpec(
            name="sensitive-join", isolation_level=2, profile=profile()))
        platform.register_function(FunctionSpec(
            name="public-write", isolation_level=0, profile=profile()))
        return sim, platform

    def test_level_ratchets_up_through_steps(self):
        sim, platform = self._platform()
        engine = WorkflowEngine(platform)
        engine.register(WorkflowSpec(
            name="up", steps=("public-read", "sensitive-join")))
        instance = engine.start("up")
        sim.run_until(120.0)
        assert instance.status == "completed"
        assert instance.data_level == 2

    def test_downward_flow_aborts_instance(self):
        # After touching level 2, data may not flow into a level-0
        # function: Bell–LaPadula denies, the workflow fails.
        sim, platform = self._platform(seed=14)
        engine = WorkflowEngine(platform)
        engine.register(WorkflowSpec(
            name="down", steps=("sensitive-join", "public-write")))
        instance = engine.start("down")
        sim.run_until(120.0)
        assert instance.status == "failed"
        write_traces = [t for t in platform.traces
                        if t.function == "public-write"]
        assert all(t.outcome == "isolation_denied" for t in write_traces)

    def test_propagation_disabled_allows_legacy_flows(self):
        sim, platform = self._platform(seed=15)
        engine = WorkflowEngine(platform)
        engine.register(WorkflowSpec(
            name="legacy", steps=("sensitive-join", "public-write"),
            propagate_zones=False))
        instance = engine.start("legacy")
        sim.run_until(120.0)
        assert instance.status == "completed"

    def test_start_level_respected(self):
        sim, platform = self._platform(seed=16)
        engine = WorkflowEngine(platform)
        engine.register(WorkflowSpec(name="w", steps=("public-write",)))
        instance = engine.start("w", source_level=3)
        sim.run_until(120.0)
        assert instance.status == "failed"
