"""Tests for the Utilization Controller, RIM, and GTC integration."""

import math

import pytest

from repro.cluster import MachineSpec, NetworkModel
from repro.core import (
    S_MULTIPLIER_KEY,
    TRAFFIC_MATRIX_KEY,
    ConfigStore,
    FunctionCall,
    GlobalTrafficConductor,
    GtcParams,
    Rim,
    UtilizationController,
    UtilizationParams,
    Worker,
    WorkerArrays,
)
from repro.core.call import CallIdAllocator
from repro.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.workloads import FunctionSpec, LogNormal, ResourceProfile


def cpu_profile(cpu=2000.0, exec_s=2.0):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(64.0), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


def make_rig(n_workers=2, region="r0"):
    sim = Simulator(seed=1)
    metrics = MetricsRegistry()
    rim = Rim(sim, metrics, sample_interval_s=10.0)
    machine = MachineSpec(cores=2, core_mips=1000, threads=16)
    store = WorkerArrays()
    workers = [Worker(sim, f"w{i}", region, machine=machine, arrays=store)
               for i in range(n_workers)]
    rim.register_store(region, store)
    rim.start()
    return sim, metrics, rim, workers


_ids = CallIdAllocator()


def busy_call(sim, name="f"):
    spec = FunctionSpec(name=name, profile=cpu_profile())
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r0", call_id=_ids.allocate())


class TestRim:
    def test_utilization_sampling(self):
        sim, metrics, rim, workers = make_rig()
        # Keep workers ~50% busy: 2 s CPU over 2 s wall on 2 cores.
        workers[0].execute(busy_call(sim, "a"))
        workers[1].execute(busy_call(sim, "b"))
        sim.run_until(10.0)
        # Window: 2 core-s busy of 20 core-s per worker... (2s/20s = .1)
        assert rim.fleet_utilization() == pytest.approx(0.1, abs=0.03)
        assert metrics.has_gauge("region.r0.utilization")

    def test_region_capacity_and_free_threads(self):
        sim, _, rim, workers = make_rig()
        assert rim.region_capacity("r0") == 32.0
        workers[0].execute(busy_call(sim))
        assert rim.region_free_threads("r0") == 31

    def test_double_start_rejected(self):
        sim, _, rim, _ = make_rig()
        with pytest.raises(RuntimeError):
            rim.start()


class TestUtilizationController:
    def _controller(self, util_value, **params):
        sim = Simulator(seed=2)
        config = ConfigStore(sim, propagation_delay_s=0.0)

        class FakeRim:
            def fleet_utilization(self):
                return util_value
        ctl = UtilizationController(sim, FakeRim(), config,
                                    UtilizationParams(**params))
        return sim, config, ctl

    def test_s_rises_when_underutilized(self):
        # §4.6.2: underutilized workers → S increases, pulling deferred
        # opportunistic work forward.
        sim, config, ctl = self._controller(0.2, target_utilization=0.7,
                                            gain=2.0)
        s0 = ctl.s
        ctl.update()
        assert ctl.s == pytest.approx(s0 + 2.0 * 0.5)

    def test_s_falls_when_above_target(self):
        sim, config, ctl = self._controller(0.8, target_utilization=0.7,
                                            gain=2.0)
        s0 = ctl.s
        ctl.update()
        assert ctl.s < s0

    def test_overload_backoff_to_zero(self):
        # S can decrease all the way to zero (§4.6.2).
        sim, config, ctl = self._controller(0.97,
                                            overload_utilization=0.9)
        for _ in range(20):
            ctl.update()
        assert ctl.s == 0.0

    def test_s_bounded(self):
        sim, config, ctl = self._controller(0.0, gain=100.0, s_max=10.0)
        for _ in range(10):
            ctl.update()
        assert ctl.s == 10.0

    def test_publishes_to_config(self):
        sim, config, ctl = self._controller(0.2)
        ctl.update()
        sim.run_until(1.0)
        assert config.get(S_MULTIPLIER_KEY) == ctl.s

    def test_stop_freezes_s(self):
        sim, config, ctl = self._controller(0.2)
        ctl.start()
        sim.run_until(120.0)
        ctl.stop()
        s_frozen = ctl.s
        sim.run_until(600.0)
        assert ctl.s == s_frozen


class TestGtcController:
    def test_publishes_matrix_periodically(self):
        sim = Simulator(seed=3)
        metrics = MetricsRegistry()
        config = ConfigStore(sim, propagation_delay_s=0.0)
        rim = Rim(sim, metrics, sample_interval_s=30.0)
        machine = MachineSpec(cores=2, core_mips=1000, threads=4)
        for region in ("r0", "r1"):
            worker = Worker(sim, f"{region}/w", region, machine=machine)
            rim.register_store(region, worker._arrays)
        rim.start()
        network = NetworkModel(["r0", "r1"])
        gtc = GlobalTrafficConductor(sim, rim, config, network,
                                     GtcParams(update_interval_s=30.0))
        gtc.start()
        sim.run_until(120.0)
        assert gtc.update_count >= 3
        assert config.get(TRAFFIC_MATRIX_KEY) is not None

    def test_stop_leaves_stale_matrix(self):
        # §4.1: controller failure leaves the cached matrix in place.
        sim = Simulator(seed=4)
        config = ConfigStore(sim, propagation_delay_s=0.0)
        metrics = MetricsRegistry()
        rim = Rim(sim, metrics)
        rim.register_store("r0", Worker(sim, "w", "r0")._arrays)
        network = NetworkModel(["r0"])
        gtc = GlobalTrafficConductor(sim, rim, config, network,
                                     GtcParams(update_interval_s=10.0))
        gtc.start()
        sim.run_until(30.0)
        version_before = config.version(TRAFFIC_MATRIX_KEY)
        gtc.stop()
        sim.run_until(300.0)
        assert config.version(TRAFFIC_MATRIX_KEY) == version_before
        assert config.get(TRAFFIC_MATRIX_KEY) is not None
