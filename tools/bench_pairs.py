"""Alternating pairs of benchmark runs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent REV --seed N [--pairs 10] [--what TEXT]
        [--seed-note TEXT] --out BENCH_<date>.json

Run it from the root of the repository.  The parent's committed files are
exported with `git archive` into a temporary directory, so the parent side
runs exactly what that commit holds; the change side is the working tree.
Each run is `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` from the side's own root, for every workload W of BENCHMARK.json
and its run_seconds S.  Pair i runs the parent first when i is even and the
change first when i is odd, and the workloads interleave within each pair.

The output holds every run and, per workload and end-to-end metric of
BENCHMARK.json, both sides' median and quartiles, the number of pairs the
change won in the metric's better direction, the ratio of the medians, the
parent's interquartile range, the metric's bound, a verdict:

    worse       the change's median is worse than the parent's by more than
                bound x the parent's median
    unresolved  the parent's IQR exceeds bound x its median, and not every
                change run beats every parent run
    within      neither

and whether the change claims a gain in the metric ("gain"): it won at
least nine tenths of the pairs, ties counting for neither, and its median
is better than the parent's by more than the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_commit(rev: str, dest: Path) -> str:
    """Write rev's committed files into dest; return its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return short


def bench_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run from root; its result line with plain metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(side: dict, stats: dict, sign: int, bound: float) -> str:
    """worse, unresolved or within (see the module docstring) from each
    side's runs and quartiles; sign is 1 when higher is better, else -1."""
    base = stats["parent"]["median"]
    if sign * (stats["change"]["median"] - base) < -bound * base:
        return "worse"
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    if spread > bound * base and not all(sign * (c - p) > 0
                                         for c in side["change"] for p in side["parent"]):
        return "unresolved"
    return "within"


def summarize(runs: list, workloads: list, metrics: dict) -> dict:
    """Per workload and metric; metrics maps each end-to-end metric's name
    to its BENCHMARK.json entry (better, bound)."""
    summary = {}
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        entry = {"pairs": len(mine) // 2, "all_correct": all(r["correct"] for r in mine),
                 "failed_ops": sum(r["failed"] for r in mine), "metrics": {}}
        for name, spec in metrics.items():
            side = {s: [r["metrics"][name] for r in sorted(mine, key=lambda r: r["pair"])
                        if r["side"] == s] for s in ("parent", "change")}
            sign = 1 if spec["better"] == "higher" else -1
            stats = {s: quartiles(v) for s, v in side.items()}
            wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
            iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
            entry["metrics"][name] = {
                **stats,
                "change_wins": wins,
                "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
                "parent_iqr": iqr,
                "bound": spec["bound"],
                "verdict": verdict(side, stats, sign, spec["bound"]),
                "gain": 10 * wins >= 9 * len(side["parent"])
                        and sign * (stats["change"]["median"] - stats["parent"]["median"]) > iqr,
            }
        summary[w] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--seed-note", default="", help="where the seed came from")
    ap.add_argument("--host", default=f"{os.cpu_count()}-core {platform.system()}")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        parent = export_commit(args.parent, tmp)
        roots = {"parent": tmp, "change": ROOT}
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for w in workloads:
                for i, side in enumerate(order):
                    result = bench_run(roots[side], w, args.seed, seconds)
                    runs.append({"pair": pair, "workload": w, "side": side, "ran_first": i == 0,
                                 "correct": result["correct"], "attempted": result["attempted"],
                                 "failed": result["failed"], "metrics": result["metrics"]})
                    print(f"pair {pair} {w} {side}: ops_per_s {result['metrics']['ops_per_s']:.3f}",
                          file=sys.stderr)
        record = {
            "what": args.what,
            "host": args.host,
            "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "nproc": os.cpu_count()},
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                       f"--seconds {seconds} --trace 0",
            "seed": args.seed,
            "seed_note": args.seed_note,
            "pairs_per_workload": args.pairs,
            "order": "pair i runs parent first when i is even and the change first when i is odd; "
                     "workloads interleave within each pair",
            "parent": parent,
            "summary": summarize(runs, workloads, metrics),
            "runs": runs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
