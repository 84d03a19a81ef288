"""Tests of the repository benchmark (``benchmarks/xbench``).

They run every workload at a short horizon, so the module stays well
under 20 s.  What they pin:

1. Windowed driving and the traced pass are observation, not
   perturbation: both give the digest of one ``run_until(horizon)``.
2. The ledger accounts for the whole traced run, and every class whose
   callbacks run as events belongs to a layer.
3. Every metric BENCHMARK.json declares is emitted, with its unit.
4. Every entry point of the layer table resolves, so a rename cannot
   silently zero a layer.
"""

import json
import math
import re
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

from xbench import child, layers, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SHORT_S = {"dayrun": 300.0, "fleet-100k": 60.0, "backpressure": 300.0}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def passes():
    """(untraced, traced) repetition results per workload, short runs."""
    return {w: (child.repetition(w, 7, False, SHORT_S[w]),
                child.repetition(w, 7, True, SHORT_S[w]))
            for w in NAMES}


def test_workload_tables_agree():
    assert NAMES == list(workloads.WORKLOADS)
    assert sorted(NAMES) == sorted(run.SEED7_DIGESTS)


@pytest.mark.parametrize("name", NAMES)
def test_windowed_digest_equals_one_shot(name, passes):
    wl = workloads.WORKLOADS[name]
    one_shot = wl.build(7, SHORT_S[name])
    one_shot.sim.run_until(SHORT_S[name])
    plain, _ = passes[name]
    assert plain["trace_digest"] == one_shot.platform.traces.digest()
    assert plain["events"] == one_shot.sim.events_executed
    assert len(plain["windows_s"]) == workloads.WINDOWS


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_is_digest_neutral_and_fully_attributed(name, passes):
    plain, traced = passes[name]
    assert traced["trace_digest"] == plain["trace_digest"]
    assert traced["problems"] == [] and plain["problems"] == []
    assert traced["unmapped_s"] == {}
    lay = traced["layers"]
    self_s = sum(v for k, v in lay.items() if k.endswith(".self_s"))
    assert self_s == pytest.approx(traced["run_s"], rel=run.LEDGER_TOLERANCE)
    assert lay["kernel.calls"] == traced["events"]
    assert lay["platform.calls"] == traced["ops"]


def test_downstream_layer_works_only_on_backpressure(passes):
    calls = {w: passes[w][1]["layers"]["downstream.calls"] for w in NAMES}
    assert calls["backpressure"] > 0
    assert calls["dayrun"] == calls["fleet-100k"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted(name, passes):
    plain, traced = passes[name]
    res = run.summarize(name, [plain, plain], traced, SPEC)
    assert res["correct"], res["problems"]
    line = run.result_line({"workloads": {name: res}}, SPEC, trace=False)
    for m in SPEC["end_to_end"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(line["metrics"][m["name"]]["value"])
    line = run.result_line({"workloads": {name: res}}, SPEC, trace=True)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert line["attempted"] == plain["ops"] >= 1


def test_layer_table_resolves():
    found = layers.resolve()
    assert len(found) == sum(len(methods)
                             for _, _, methods in layers.entry_points())
    declared = {m["name"].split(".")[0] for m in SPEC["per_layer"]}
    assert declared == {layer.name for layer in layers.LAYERS}


def test_renamed_entry_point_is_an_error():
    with pytest.raises(AttributeError, match="Worker.no_such_method"):
        layers.resolve((("repro.core.worker", "Worker",
                         ("no_such_method",)),))


def test_tight_client_rate_limit_fails_operations():
    bp = workloads.build_backpressure(seed=7, horizon_s=60.0, client_rps=5.0)
    workloads.drive(bp.sim, bp.horizon_s)
    out = workloads.outcomes(bp)
    assert out["failed_frac"] > 0
    assert workloads.problems(bp, out) == []


def _st(*samples):
    return run.stat(list(samples), "x")


def test_verdicts():
    v = run.verdict
    assert v(_st(1.0, 1.0), _st(1.0, 1.0), "higher", 0.1) == "same"
    assert v(_st(100, 101, 102), _st(80, 81, 82), "higher", 0.1) == "worse"
    assert v(_st(100, 101, 102), _st(110, 111, 112), "higher", 0.1) == "better"
    assert v(_st(100, 101, 102), _st(99, 100, 101), "higher", 0.1) == "same"
    assert v(_st(100, 101, 102), _st(120, 121, 122), "lower", 0.1) == "worse"
    assert v(_st(50, 100, 150), _st(60, 110, 160), "higher",
             0.1) == "unresolved"
    assert v(_st(50, 60, 70), _st(100, 150, 200), "higher", 0.1) == "better"
    assert v(_st(0.0), _st(0.001), "lower", 0.0, absolute=True) == "worse"
    assert v(_st(0.5), _st(0.504), "higher", 0.005, absolute=True) == "better"


def test_reported_values_are_medians_of_their_samples(passes):
    plain, _ = passes["backpressure"]
    reps = [{**plain, "run_s": plain["run_s"] * k, "setup_s": 0.1 * k}
            for k in (1.0, 3.0, 1.5, 1.2)]
    res = run.summarize("backpressure", reps, None, SPEC)
    for m in ("calls_per_s", "setup_s"):
        st = res["metrics"][m]
        assert st["value"] == statistics.median(st["samples"])
        assert st["q1"] <= st["value"] <= st["q3"]
    scale = run.REFERENCE_S / plain["reference_s"]
    assert res["metrics"]["calls_per_s"]["samples"][0] == pytest.approx(
        plain["ops"] / (plain["run_s"] * scale))
    assert res["metrics"]["setup_s"]["samples"][0] == pytest.approx(
        0.1 * scale)


def test_export_src_extracts_a_revision(tmp_path):
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    src = run.export_src("HEAD", tmp_path)
    assert (src / "repro" / "__init__.py").is_file()
