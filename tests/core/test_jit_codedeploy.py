"""Tests for the JIT warm-up model (Fig 12) and staged code rollout."""

import pytest

from repro.core import CodeDeployer, CodeVersion, JitParams, RolloutParams, RuntimeJit
from repro.sim import Simulator


class TestRuntimeJit:
    def test_fresh_runtime_is_warm(self):
        jit = RuntimeJit()
        assert jit.speed(0.0) == 1.0
        assert jit.warm

    def test_seeded_restart_ramps_in_3_minutes(self):
        # Figure 12: with seeder data, max RPS at T+180 s.
        jit = RuntimeJit()
        jit.restart(0.0, with_profile_data=True)
        assert jit.speed(0.0) == pytest.approx(0.30)
        assert jit.speed(90.0) < 1.0
        assert jit.speed(180.0) == 1.0
        assert jit.time_to_max(0.0) == pytest.approx(180.0)

    def test_unseeded_restart_takes_21_minutes(self):
        # Figure 12: without data, 21 minutes (1260 s) of profiling.
        jit = RuntimeJit()
        jit.restart(0.0, with_profile_data=False)
        assert jit.speed(180.0) < 1.0
        assert jit.speed(1259.0) < 1.0
        assert jit.speed(1260.0) == 1.0

    def test_seeded_much_faster_than_unseeded(self):
        params = JitParams()
        assert params.unseeded_ramp_s / params.seeded_ramp_s == pytest.approx(
            7.0)  # 21 min / 3 min

    def test_profile_arrival_mid_ramp_shortens(self):
        jit = RuntimeJit()
        jit.restart(0.0, with_profile_data=False)
        jit.receive_profile_data(300.0)
        # Now finishes at 300 + 180 = 480 instead of 1260.
        assert jit.speed(480.0) == 1.0
        assert jit.speed(400.0) < 1.0

    def test_profile_arrival_equals_seeded_restart_at_that_time(self):
        # The shortened ramp is anchored at the arrival time itself, not
        # at the old anchor plus a float delta (which drifts by an ulp
        # at times like these and moves every later service duration).
        late = RuntimeJit()
        late.restart(100.1, with_profile_data=False)
        late.receive_profile_data(400.7)
        seeded = RuntimeJit()
        seeded.restart(400.7, with_profile_data=True)
        times = [400.7 + 7.3 * k for k in range(30)]
        assert [late.speed(t) for t in times] == \
            [seeded.speed(t) for t in times]
        assert [late.time_to_max(t) for t in times] == \
            [seeded.time_to_max(t) for t in times]

    def test_profile_after_warm_is_noop(self):
        jit = RuntimeJit()
        jit.restart(0.0, with_profile_data=False)
        jit.receive_profile_data(2000.0)
        assert jit.speed(2000.0) == 1.0

    def test_speed_monotone_during_ramp(self):
        jit = RuntimeJit()
        jit.restart(0.0, with_profile_data=False)
        speeds = [jit.speed(t) for t in range(0, 1400, 50)]
        assert speeds == sorted(speeds)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            JitParams(floor=0.0)
        with pytest.raises(ValueError):
            JitParams(seeded_ramp_s=2000.0, unseeded_ramp_s=100.0)


class _FakeWorker:
    def __init__(self):
        self.versions = []
        self.profile_received = 0
        self.locality_group = 0
        self.code_version = CodeVersion(version=1, released_at=0.0)

    def adopt_version(self, version, seeded):
        self.versions.append((version.version, seeded))
        self.code_version = version

    def receive_profile_data(self):
        self.profile_received += 1


class TestCodeDeployer:
    def _deploy(self, n_workers=100, cooperative=True):
        sim = Simulator(seed=1)
        deployer = CodeDeployer(
            sim, RolloutParams(push_interval_s=3 * 3600.0,
                               canary_workers=2, phase2_fraction=0.02),
            cooperative_jit=cooperative)
        workers = [_FakeWorker() for _ in range(n_workers)]
        deployer.register_workers(workers)
        return sim, deployer, workers

    def test_push_reaches_all_workers(self):
        sim, deployer, workers = self._deploy()
        deployer.push_new_version()
        sim.run_until(2 * 3600.0)
        assert all(w.versions and w.versions[-1][0] == 2 for w in workers)

    def test_three_phases_staged_in_time(self):
        sim, deployer, workers = self._deploy()
        deployer.push_new_version()
        p = deployer.params
        sim.run_until(p.distribution_delay_s + 1.0)
        adopted = sum(1 for w in workers if w.versions)
        assert adopted == 2  # canaries only
        sim.run_until(p.distribution_delay_s + p.phase1_duration_s + 1.0)
        adopted = sum(1 for w in workers if w.versions)
        assert adopted == 4  # + 2% of 100
        sim.run_until(2 * 3600.0)
        assert sum(1 for w in workers if w.versions) == 100

    def test_phase3_workers_seeded_with_cooperative_jit(self):
        sim, deployer, workers = self._deploy(cooperative=True)
        deployer.push_new_version()
        sim.run_until(2 * 3600.0)
        seeded_flags = [w.versions[-1][1] for w in workers]
        assert sum(seeded_flags) >= 90  # phase-3 majority seeded

    def test_no_cooperative_jit_all_unseeded(self):
        sim, deployer, workers = self._deploy(cooperative=False)
        deployer.push_new_version()
        sim.run_until(2 * 3600.0)
        assert not any(seeded for w in workers for _, seeded in w.versions)
        assert all(w.profile_received == 0 for w in workers)

    def test_periodic_pushes(self):
        sim, deployer, workers = self._deploy()
        deployer.start()
        sim.run_until(9.5 * 3600.0)  # 3 push intervals
        assert deployer.current_version.version == 4

    def test_stale_version_ignored_by_worker_model(self):
        sim, deployer, workers = self._deploy()
        from repro.cluster import MachineSpec
        from repro.core import Worker
        worker = Worker(sim, "w", "r")
        v_old = CodeVersion(version=0, released_at=0.0)
        worker.adopt_version(v_old, seeded=False)
        assert worker.code_version.version == 1  # unchanged
