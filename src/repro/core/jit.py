"""Cooperative JIT compilation model (§4.5.1, Figure 12).

The paper's PHP runtime (HHVM) uses instrumentation-based profiling to
drive region-based JIT compilation.  Profiling is slow: a runtime that
must profile on its own takes ~21 minutes to reach maximum RPS after a
restart, while a runtime *seeded* with profiling data from a designated
seeder worker reaches maximum RPS in ~3 minutes (Figure 12's
experiment).

We model this as a per-runtime speed multiplier in (0, 1]: a freshly
(re)started runtime ramps linearly from ``floor`` to 1.0 over either the
seeded or unseeded ramp duration.  Executing a call while the multiplier
is *s* consumes ``1/s`` times the CPU, which is what caps a saturated
worker's RPS at ``s`` × maximum.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class JitParams:
    """Ramp parameters calibrated to Figure 12."""

    #: Relative speed immediately after a restart (interpreter-ish).
    floor: float = 0.30
    #: Seconds to reach max RPS with seeder profiling data (Fig 12: 3 min).
    seeded_ramp_s: float = 180.0
    #: Seconds to reach max RPS with self-instrumented profiling
    #: (Fig 12: 21 minutes between T900 and T2160).
    unseeded_ramp_s: float = 1260.0

    def __post_init__(self) -> None:
        if not 0 < self.floor <= 1:
            raise ValueError(f"floor must be in (0, 1], got {self.floor}")
        if self.seeded_ramp_s <= 0 or self.unseeded_ramp_s <= 0:
            raise ValueError("ramp durations must be positive")
        if self.seeded_ramp_s > self.unseeded_ramp_s:
            raise ValueError("seeded ramp should not exceed unseeded ramp")


class RuntimeJit:
    """JIT warm-up state of one runtime instance (one Linux process)."""

    def __init__(self, params: JitParams = JitParams()) -> None:
        self.params = params
        self._start_time = 0.0
        self._seeded = True
        self._ramp_s = 0.0  # fully warm until the first restart

    def restart(self, now: float, with_profile_data: bool) -> None:
        """Restart the runtime (code update); resets the warm-up ramp."""
        self._start_time = now
        self._seeded = with_profile_data
        self._ramp_s = (self.params.seeded_ramp_s if with_profile_data
                        else self.params.unseeded_ramp_s)

    def receive_profile_data(self, now: float) -> None:
        """Seeder data arrived mid-ramp: switch to the fast compile path.

        The remaining warm-up shortens to the seeded ramp (compilation
        of pre-profiled hot regions), measured from now.
        """
        if self.speed(now) >= 1.0 or self._seeded:
            return
        self._seeded = True
        self._start_time = now
        self._ramp_s = self.params.seeded_ramp_s

    def speed(self, now: float) -> float:
        """Current speed multiplier in [floor, 1]."""
        if self._ramp_s <= 0:
            return 1.0
        frac = (now - self._start_time) / self._ramp_s
        if frac >= 1.0:
            return 1.0
        frac = max(frac, 0.0)
        return self.params.floor + (1.0 - self.params.floor) * frac

    @property
    def warm(self) -> bool:
        return self._ramp_s <= 0

    def time_to_max(self, now: float) -> float:
        """Seconds until the runtime reaches full speed."""
        if self._ramp_s <= 0:
            return 0.0
        return max(0.0, self._start_time + self._ramp_s - now)
