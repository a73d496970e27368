"""Regenerate the pinned expected outputs in perfbench/pins/.

    python3 perfbench/pin.py [reproduce] [distance] [family]

Run this only at a commit whose outputs have been verified: the benchmark
counts any later deviation from these files as a failed operation.

- distance: every pool code's exact d comes from the independent oracle in
  oracle.py (field tables built from the modulus, full codeword enumeration),
  and qckit must agree; a rank-deficient draw is redrawn and the attempt
  number pinned.
- reproduce: the check-status vector, every fail/flagged row and each
  target's results, as qckit reports them; example41's exact distance and
  exact CSS distance are recomputed by the oracle first.
- family: each level's (n, k, d_lower, rank_checked, duality_checked).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402


def _write(name: str, payload: dict) -> None:
    path = workloads.PINS / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")


def _oracle_tables(field):
    add, mul = oracle.field_tables(field.p, field.t)
    q_add, q_mul, _, _ = field.tables()
    if not (np.array_equal(add, q_add) and np.array_equal(mul, q_mul)):
        raise SystemExit(f"oracle and qckit tables of {field!r} differ")
    return add, mul


def pin_distance() -> None:
    import qckit

    shapes = {}
    for shape in workloads.DISTANCE_SHAPES:
        p, t, k, n = shape
        field = qckit.field_make(p, t)
        add, mul = _oracle_tables(field)
        variants = []
        for variant in range(workloads.DISTANCE_VARIANTS):
            attempt = 0
            while oracle.rank(gen := workloads.distance_matrix(shape, variant, attempt), add, mul) < k:
                attempt += 1
            d = oracle.min_weight(gen, add, mul)
            got = qckit.min_distance(qckit.code_from_rows(field, n, gen), mode="exact").d_exact
            if got != d:
                raise SystemExit(f"{workloads.shape_id(shape)} v{variant}: qckit d={got}, oracle d={d}")
            variants.append({"attempt": attempt, "d": d})
        shapes[workloads.shape_id(shape)] = {"p": p, "t": t, "k": k, "n": n, "variants": variants}
        print(workloads.shape_id(shape), [v["d"] for v in variants], flush=True)
    _write("distance", {"shapes": shapes})


def pin_reproduce() -> None:
    from qckit import (ConstituentAssignment, PairAssignment, SelfrecAssignment, assemble_qc,
                       code_from_rows, decompose_ring, field_make, full_space, lincode, reproduce)

    reports = {t: reproduce.run_target(t, budget=lincode.DEFAULT_BUDGET)[0] for t in reproduce.TARGETS}
    ex41 = reports["example41"].results
    f4 = field_make(2, 2)
    decomp = decompose_ring(f4, 7, 3)
    f64 = decomp.pair_slots[0][0].cfield
    cp = code_from_rows(f64, 3, [(f64.gen,) * 3])
    gen = assemble_qc(decomp, ConstituentAssignment((PairAssignment(cp),),
                                                    (SelfrecAssignment(full_space(f4, 3)),))).lin.gen
    add, mul = _oracle_tables(f4)
    d = oracle.min_weight(gen, add, mul)
    d_css = oracle.min_weight(gen, add, mul, outside=gen)
    if (d, d_css) != (ex41["exact_distance"], ex41["exact_css_distance"]):
        raise SystemExit(f"example41: oracle (d, d_css) = {(d, d_css)}, qckit {ex41}")
    targets = {}
    for target, rep in reports.items():
        targets[target] = {
            "statuses": [[c.claim, c.status] for c in rep.checks],
            "not_passing": [workloads.json_normal([c.claim, c.expected, c.computed])
                            for c in rep.checks if c.status != "pass"],
            "results": workloads.json_normal(rep.results),
        }
    _write("reproduce", {"targets": targets})


def pin_family() -> None:
    from qckit import build_family

    recipes = {}
    for name, plan in workloads.Family.make_plans().items():
        levels = build_family(plan)
        pinned = {"kind": plan.kind,
                  "levels": [[lv.n, lv.k, lv.d_lower, lv.rank_checked, lv.duality_checked]
                             for lv in levels]}
        problems = workloads.independent_level_check(levels, pinned)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        recipes[name] = pinned
        print(name, pinned, flush=True)
    _write("family", {"recipes": recipes})


def main(argv) -> int:
    jobs = {"reproduce": pin_reproduce, "distance": pin_distance, "family": pin_family}
    for name in argv or list(jobs):
        jobs[name]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
