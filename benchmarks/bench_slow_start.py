"""§4.6.3 slow start — traffic growth capped at α=20% per minute.

Paper claim: with W = 1 minute, T = 100 calls, α = 20%, a function whose
offered load steps up abruptly is released to its downstream services
gradually, giving caches and autoscalers time to warm.
"""

from conftest import write_result

from repro.core import CongestionController, CongestionParams
from repro.metrics import sparkline
from repro.workloads import FunctionSpec

OFFERED_PER_MIN = 3000.0


def run_step_load(n_windows: int = 25):
    ctl = CongestionController(CongestionParams())
    ctl.register(FunctionSpec(name="stepper"))
    state = ctl.state_for("stepper")
    dispatched = []
    for window in range(n_windows):
        count = 0
        for _ in range(int(OFFERED_PER_MIN)):
            if ctl.can_dispatch("stepper", window * 60.0):
                ctl.on_dispatch(state)
                ctl.on_finish("stepper")
                count += 1
        dispatched.append(count)
        ctl.adjust((window + 1) * 60.0)
    return dispatched


def test_slow_start(benchmark):
    dispatched = benchmark(run_step_load)
    lines = [
        "Slow start — dispatched calls per minute under a step to "
        f"{OFFERED_PER_MIN:.0f}/min offered",
        "  " + sparkline([float(d) for d in dispatched]),
        "  windows: " + ", ".join(str(d) for d in dispatched[:12]) + " ...",
    ]
    write_result("slow_start", "\n".join(lines))

    # First window: exactly T = 100 calls.
    assert dispatched[0] == 100
    # Growth capped at 20% per window until the offered load is reached.
    for prev, cur in zip(dispatched, dispatched[1:]):
        if cur < OFFERED_PER_MIN:
            assert cur <= prev * 1.2 + 1
    # Eventually the full offered load flows.
    assert dispatched[-1] == OFFERED_PER_MIN
    # Ramp takes ~log(30)/log(1.2) ≈ 19 windows.
    first_full = next(i for i, d in enumerate(dispatched)
                      if d == OFFERED_PER_MIN)
    assert 15 <= first_full <= 22
