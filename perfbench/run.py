"""qckit benchmark: one command per workload run.

    python3 perfbench/run.py --workload reproduce|distance|family \\
        --seed N --seconds S --trace 0|1 [--max-ops K]

Run from the root of a qckit source tree; qckit is imported from ./src, never
from an installed copy.  With --trace 0 the run starts SETUP_PROBES set-up-only
worker processes, then one measuring worker, each a fresh single process
(see worker.py); set-up time is the median over all of them.  With --trace 1
one worker measures untraced and then traced cycles and reports per-layer
metrics.  The last line of standard output is the result JSON; the line
before it is a summary (environment, sample counts, fail share, layer
shares).  A full record of the run goes to .perfbench/ under the root.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 6
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "op_p90_s", "peak_rss_mb")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from spawn to READY, its result or None)."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.monotonic() - start
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not become ready (exit {proc.poll()})")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qckit benchmark")
    ap.add_argument("--workload", required=True, choices=("reproduce", "distance", "family"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-ops", type=int, help="stop after this many operations (smoke tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qckit" / "__init__.py").is_file():
        print(f"run.py: no qckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    extra = ["--max-ops", str(args.max_ops)] if args.max_ops else []
    try:
        setups = [] if args.trace else [run_child(base + ["--setup-only"], env, deadline)[0]
                                        for _ in range(SETUP_PROBES)]
        setup_s, result = run_child(base + extra, env, deadline)
        if result is None:
            raise RuntimeError("worker printed no result")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics = {name: metrics[name] for name in END_TO_END}
    samples = result["samples"]
    attempted, failed = result["attempted"], len(result["failures"])
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": result["env"],
        "cycles": result["cycles"], "op_samples": len(samples),
        "fail_share": failed / attempted, "failures": result["failures"][:5],
        "setup_samples_s": setups,
    }
    if args.trace:
        summary.update(stress=result["stress"], spans=result["spans"])
    else:
        p90 = metrics["op_p90_s"]["value"]
        summary["samples_beyond_p90"] = sum(1 for s in samples if s > p90)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({**summary, "samples_s": samples, "metrics": metrics}, fh, indent=1)
    print("perfbench summary: " + json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
