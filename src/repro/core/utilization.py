"""Utilization Controller: the S multiplier for opportunistic quota (§4.6.2).

Opportunistic functions run at an elastic RPS limit ``r = r0 × S``.
This controller monitors fleet-wide worker utilization (via RIM) and
steers S toward a target utilization: underutilized workers raise S
(pulling deferred opportunistic work forward), overloaded workers lower
it — all the way to zero, which stops opportunistic scheduling entirely.

The result is Figure 11's complementarity: opportunistic CPU fills the
troughs that reserved (diurnal) CPU leaves behind.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.kernel import Simulator
from .config import ConfigStore
from .rim import Rim
from .scheduler import S_MULTIPLIER_KEY

#: S's floor (0 stops opportunistic scheduling) and starting value.
S_MIN = 0.0
S_INITIAL = 1.0
#: Factor S is cut by on each update above ``overload_utilization``.
OVERLOAD_BACKOFF = 0.5


@dataclass(frozen=True)
class UtilizationParams:
    """Target utilization and the S-multiplier control law (§4.6.2)."""

    #: Target daily utilization (the paper achieves 66% average; the
    #: controller aims a bit above so the average lands near it).
    target_utilization: float = 0.70
    update_interval_s: float = 60.0
    #: Proportional gain: ΔS per unit utilization error per update.
    #: Asymmetric by design: S falls multiplicatively under overload but
    #: rises gently, avoiding bang-bang oscillation around the target.
    gain: float = 0.75
    s_max: float = 10.0
    #: Above this utilization, S is cut multiplicatively (fast backoff).
    overload_utilization: float = 0.90

    def __post_init__(self) -> None:
        if not 0 < self.target_utilization < 1:
            raise ValueError("target_utilization must be in (0, 1)")
        if self.s_max < S_MIN:
            raise ValueError(f"s_max must be >= {S_MIN}")


class UtilizationController:
    """Feedback controller publishing S through the config system."""

    def __init__(self, sim: Simulator, rim: Rim, config: ConfigStore,
                 params: UtilizationParams = UtilizationParams()) -> None:
        self.sim = sim
        self.rim = rim
        self.config = config
        self.params = params
        self.s = S_INITIAL
        self.update_count = 0
        self._task = None
        config.publish(S_MULTIPLIER_KEY, self.s)

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("controller already started")
        self._task = self.sim.every(
            self.params.update_interval_s, self.update,
            start=self.sim.now + self.params.update_interval_s)

    def stop(self) -> None:
        """Central-controller failure: schedulers keep the cached S (§4.1)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def update(self) -> None:
        p = self.params
        util = self.rim.fleet_utilization()
        if util >= p.overload_utilization:
            # Fast multiplicative backoff under overload; S may hit 0.
            self.s = max(S_MIN, self.s * OVERLOAD_BACKOFF - 0.01)
        else:
            error = p.target_utilization - util
            self.s = min(p.s_max, max(S_MIN, self.s + p.gain * error))
        self.config.publish(S_MULTIPLIER_KEY, self.s)
        self.update_count += 1
