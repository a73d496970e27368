"""One workload process: set up, print READY, then measure and print one JSON
line.  Started by run.py; see README.md for the protocol and the metrics.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                [--setup-only] [--max-ops K]

A traced run also writes its spans to .perfbench/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from run import OUT, THREAD_VARS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_op(op) -> tuple[float, list]:
    """Time one operation and check its output; an exception is a failure."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # the loop must go on; the failure is counted and reported
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    seconds = time.perf_counter() - start
    try:
        problems = op.check(result)
    except Exception:
        problems = ["check raised: " + traceback.format_exc(limit=3)]
    return seconds, problems


def measure(workload, seconds: float, max_ops: int | None = None, cycles: int | None = None) -> dict:
    """Closed loop over whole cycles, stopping at the cycle boundary nearest
    to `seconds` (or after exactly `cycles` cycles, or `max_ops` operations)."""
    samples, failures = [], []
    start = cycle_start = time.perf_counter()
    done = 0
    while True:
        for op in workload.cycle(done):
            op_s, problems = run_op(op)
            samples.append(op_s)
            if problems:
                failures.append({"op": op.label, "problems": problems})
            if max_ops is not None and len(samples) >= max_ops:
                break
        done += 1
        if max_ops is not None and len(samples) >= max_ops:
            break
        if cycles is not None and done >= cycles:
            break
        now = time.perf_counter()
        if cycles is None and now + (now - cycle_start) / 2 - start >= seconds:
            break
        cycle_start = now
    return {"samples": samples, "failures": failures, "cycles": done}


def environment() -> dict:
    import numpy
    from qckit import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "qckit_numba_enabled": _kernels.numba_enabled(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(run: dict) -> dict:
    samples = run["samples"]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1] if len(samples) > 1 else samples[0]
    return {
        "ops_per_s": {"value": len(samples) / sum(samples), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(samples), "unit": "s"},
        "op_p90_s": {"value": p90, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def under(tracer: Tracer, workload, max_ops: int | None, cycles: int) -> dict:
    tracer.install()
    try:
        return measure(workload, 0, max_ops, cycles=cycles)
    finally:
        tracer.uninstall()


def traced(workload, args) -> tuple[dict, dict, dict]:
    """Whole untraced cycles for about a quarter of the time, the same
    cycles again under the span tracer, then the first cycle once more for
    memory peaks."""
    plain = measure(workload, args.seconds / 4, args.max_ops)
    tracer = Tracer()
    run = under(tracer, workload, args.max_ops, plain["cycles"])
    peaks = Tracer(peaks=True)
    peak_run = under(peaks, workload, args.max_ops, 1)
    ops, op_total = len(run["samples"]), sum(run["samples"])
    metrics = tracer.layer_metrics(ops, op_total / ops, sum(plain["samples"]) / len(plain["samples"]),
                                   peaks.peak_mb)
    stress = workload.stress(tracer, op_total)
    write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json", tracer, peaks.peak_mb, stress)
    runs = (plain, run, peak_run)
    result = {"samples": run["samples"], "cycles": run["cycles"],
              "failures": [f for r in runs for f in r["failures"]],
              "attempted": sum(len(r["samples"]) for r in runs)}
    return result, metrics, {"stress": stress, "spans": len(tracer.spans)}


def write_trace(path: Path, tracer: Tracer, peak_mb: dict, stress: dict) -> None:
    t0 = tracer.spans[0][3] if tracer.spans else 0.0
    layers = sorted(set(tracer.self_s))
    payload = {
        "stress": stress,
        "layers": {layer: {"self_s": tracer.self_s[layer], "inclusive_s": tracer.incl_s.get(layer, 0.0),
                           "calls": tracer.calls[layer], "peak_mb": peak_mb.get(layer)}
                   for layer in layers},
        "span_columns": ["id", "parent", "layer", "start_s", "end_s"],
        "spans": [[sid, parent, layer, round(start - t0, 9), round(end - t0, 9)]
                  for sid, parent, layer, start, end in tracer.spans],
    }
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int)
    args = ap.parse_args(argv)

    if not (SRC / "qckit" / "__init__.py").is_file():
        print(f"worker: no qckit sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    import qckit

    if Path(qckit.__file__).resolve().parent != (SRC / "qckit").resolve():
        print(f"worker: imported qckit from {qckit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("READY", flush=True)
    if args.setup_only:
        return 0
    env = environment()
    if args.trace:
        run, metrics, extra = traced(workload, args)
    else:
        run = measure(workload, args.seconds, args.max_ops)
        run["attempted"] = len(run["samples"])
        metrics, extra = end_to_end(run), {}
    print(json.dumps({"env": env, "metrics": metrics, "samples": run["samples"],
                      "attempted": run["attempted"], "failures": run["failures"],
                      "cycles": run["cycles"], **extra}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
