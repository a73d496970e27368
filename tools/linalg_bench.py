"""Time the linear-algebra layer: lincode._rref and lincode._matmul.

    python3 tools/linalg_bench.py [--repeat 5] [--threads 1 2] [--case NAME ...] [--out FILE]

Run it from the root of the repository.  Every case runs in a fresh
subprocess, once per BLAS thread count, with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to that count before numpy loads.
A subprocess runs its case once to warm the field's tables, then --repeat
times, and reports the best and the median wall time.  The cases:

    rref-F<q>        _rref of a random 300 x 600 matrix over F_q
    family-<recipe>  _rref of the level-2 generator rows that assemble_qc
                     eliminates in build_family of cor35 (ESO, F_3),
                     example43 (EDC, F_4) and example39 (ESD, F_5)
    matmul-thin-F<q> _matmul of random (300 x 16) . (16 x 600) over F_q
    matmul-sq-F<q>   _matmul of random (300 x 300) . (300 x 300) over F_q

with q in FIELDS, and the products of EXTRA: a small one over F_64,
products over F_2^17 (above the log tables) and over primes whose squares
exceed float64's 2^53, and matrix-vector products (2000 x 64) . (64 x 1)
over fields of degree 10 and 17, the shape of
qc.constituent_at_exponent's product.  The matrices are drawn from a generator seeded per case,
so two checkouts time the same inputs.  The output is JSON: the host and
one record per case and thread count with best_s and median_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = (2, 3, 5, 4, 8, 9, 25, 64, 121, 3125)
RECIPES = {"cor35": ("ESO", 605), "example43": ("EDC", 147), "example39": ("ESD", 726)}
SHAPES = {"thin": (300, 16, 600), "sq": (300, 300, 300), "small": (20, 40, 20), "vec": (2000, 64, 1)}
EXTRA = ("matmul-small-F64", "matmul-sq-F131072", "matmul-vec-F59049", "matmul-vec-F131072",
         "matmul-sq-F16777213", "matmul-sq-F2147483647")
CASES = ([f"rref-F{q}" for q in FIELDS] + [f"family-{r}" for r in RECIPES]
         + [f"matmul-{s}-F{q}" for s in ("thin", "sq") for q in FIELDS] + list(EXTRA))


def family_rows(recipe: str):
    """The field and the rows of the widest code_from_rows call that
    build_family makes for the recipe's level 2."""
    from qckit import qc, reproduce

    kind, n = RECIPES[recipe]
    plan = reproduce.example_plan(recipe, kind, u_max=2, materialize_max=n)
    seen = []
    build = qc.code_from_rows

    def record(field, length, rows):
        seen.append((length, field, rows))
        return build(field, length, rows)

    qc.code_from_rows = record
    try:
        qc.build_family(plan)
    finally:
        qc.code_from_rows = build
    length, field, rows = max(seen, key=lambda s: s[0])
    return field, rows


def prepare(case: str):
    """The case's call, with its inputs built."""
    import numpy as np

    from qckit import lincode
    from qckit.gf import field_from_order

    kind, _, rest = case.partition("-")
    if kind == "family":
        field, rows = family_rows(rest)
        return lambda: lincode._rref(field, rows)
    rng = np.random.default_rng(sum(map(ord, case)))
    if kind == "rref":
        field = field_from_order(int(rest[1:]))
        mat = rng.integers(0, field.order, size=(300, 600))
        return lambda: lincode._rref(field, mat)
    shape, fq = rest.split("-")
    field = field_from_order(int(fq[1:]))
    k, n, j = SHAPES[shape]
    a = rng.integers(0, field.order, size=(k, n))
    b = rng.integers(0, field.order, size=(n, j))
    return lambda: lincode._matmul(field, a, b)


def measure(case: str, repeat: int) -> dict:
    """One case, in this process."""
    call = prepare(case)
    call()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return {"best_s": round(min(times), 6), "median_s": round(statistics.median(times), 6)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per case")
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 2], help="BLAS thread counts")
    ap.add_argument("--case", nargs="+", choices=CASES, default=CASES, help="cases to run")
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    ap.add_argument("--run", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run:  # the per-case subprocess
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(measure(args.run, args.repeat)))
        return 0
    records = []
    for threads in args.threads:
        env = dict(os.environ, **{v: str(threads) for v in
                                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        for case in args.case:
            cmd = [sys.executable, __file__, "--run", case, "--repeat", str(args.repeat)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            rec = {"case": case, "threads": threads}
            if proc.returncode == 0:
                rec.update(json.loads(proc.stdout))
            else:
                rec["error"] = proc.stderr.strip().splitlines()[-1:]
            print(json.dumps(rec), file=sys.stderr, flush=True)
            records.append(rec)
    import numpy

    text = json.dumps({"host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                                "python": platform.python_version(), "numpy": numpy.__version__},
                       "repeat": args.repeat, "records": records}, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if all("error" not in rec for rec in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
