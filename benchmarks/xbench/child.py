"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and reads the one
JSON line it prints.  Set-up time runs from the first statement below,
before ``import repro``, to the first event, so work moved into import
or construction shows in ``setup_s``.

    python3 benchmarks/xbench/child.py --workload dayrun --seed 7 \
        --trace 0 --src src
"""

# simlint: disable-file=SL002 -- host time is what this harness measures
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402


def repetition(workload: str, seed: int, trace: bool,
               horizon_s: Optional[float] = None) -> Dict[str, Any]:
    """Build, drive and check one run; ``horizon_s`` shortens it."""
    from xbench import layers, workloads

    wl = workloads.WORKLOADS[workload]
    rec = None
    if trace:
        # Wrapping happens at class level and must precede the build:
        # components bind their callbacks at construction.
        rec = layers.LayerRecorder()
        rec.install()
    try:
        run = wl.build(seed, horizon_s or wl.horizon_s)
        setup_s = time.perf_counter() - T0
        windows, reference_s = workloads.drive(run.sim, run.horizon_s, rec)
    finally:
        if rec is not None:
            rec.uninstall()
    # Read before the digest and summaries allocate anything.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = workloads.outcomes(run)
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "setup_s": setup_s, "run_s": sum(windows), "windows_s": windows,
        "reference_s": reference_s, "peak_rss_mb": peak_rss_mb,
        "trace_digest": run.platform.traces.digest(),
        "problems": workloads.problems(run, out),
        **out,
    }
    if rec is not None:
        attr = layers.attribute(rec)
        result["layers"] = {**layers.ledger(attr, result["run_s"]),
                            **layers.counters(run, attr["entry_calls"])}
        result["unmapped_s"] = attr["unmapped"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True,
                    help="directory holding the repro package")
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(Path(__file__).resolve().parent.parent)]
    print(json.dumps(repetition(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
