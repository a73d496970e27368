"""Record the distance engine's results at many budgets, for tests/data/engine_cuts.json.

    PYTHONPATH=src python3 tools/engine_cuts.py > tests/data/engine_cuts.json

Run it from the root of the repository.  For each code it records what
lincode._min_weight returns, (best, lower, visited), with and without
syndrome rows, at budgets 0, 1, 7, 100, 1000, one below, at and one above
the end of every stage of the uncapped run, the middle of every such stage,
and 2^24.  A budget that ends
inside a stage sees exactly the codewords visited before it, so equal
results at every budget pin the engine's visit order.

The codes are variant 0 of every perfbench `distance` shape and small codes
over F_64, F_3125, F_65537 and F_2^17.  Generator and syndrome rows are
stored as given, before echelon form.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import DISTANCE_SHAPES, distance_matrix, load_pins, shape_id  # noqa: E402
from qckit.gf import field_make  # noqa: E402
from qckit.lincode import _information_sets, _min_weight, code_from_rows, grs_code  # noqa: E402

FULL = 2**24


def stage_ends(field, code) -> list[int]:
    """Codewords visited at the end of each stage (w, j), in visit order."""
    sets = len(list(_information_sets(field, code.gen, code.pivots)))
    ends, total = [], 0
    for w in range(1, code.k + 1):
        for _ in range(sets):
            total += math.comb(code.k, w) * (field.order - 1) ** (w - 1)
            ends.append(total)
            if total >= FULL:
                return ends
    return ends


def record(name: str, p: int, t: int, rows: np.ndarray, syn: np.ndarray) -> dict:
    field = field_make(p, t)
    code = code_from_rows(field, rows.shape[1], rows)
    visited = _min_weight(field, code.gen, code.pivots, None, FULL)[2]
    budgets = {0, 1, 7, 100, 1000, FULL}
    start = 0
    for end in stage_ends(field, code):
        if start >= visited:
            break
        budgets |= {end - 1, end, end + 1, (start + end) // 2}
        start = end
    runs = []
    for budget in sorted(budgets):
        for s in (None, syn):
            best, lower, seen = _min_weight(field, code.gen, code.pivots, s, budget)
            runs.append({"budget": budget, "syn": s is not None, "result": [best, lower, seen]})
    return {"name": name, "p": p, "t": t, "rows": rows.tolist(), "syn": syn.tolist(), "runs": runs}


def small_codes():
    """(name, p, t, rows) of the large-field codes."""
    # Reed-Solomon [12,6] over F_64 on the points 1..12: its weight-3 stage
    # runs one support of 63^2 coefficient patterns per block
    yield "q64-k6-n12", 2, 6, grs_code(field_make(2, 6), range(1, 13), [1] * 12, 6).gen
    rng = np.random.default_rng(3125)
    yield "q3125-k3-n8", 5, 5, rng.integers(0, 3125, size=(3, 8))
    # the [12,3] Reed-Solomon code on the points 1..12: weight 2 spans 16 blocks per support
    yield "q65537-k3-n12", 65537, 1, np.array([[a**i for a in range(1, 13)] for i in range(3)])
    rng = np.random.default_rng(17)
    yield "q131072-k2-n5", 2, 17, rng.integers(0, 2**17, size=(2, 5))


def main() -> int:
    pins = load_pins("distance")["shapes"]
    codes = []
    for shape in DISTANCE_SHAPES:
        p, t, k, n = shape
        name = shape_id(shape)
        codes.append((name, p, t, distance_matrix(shape, 0, pins[name]["variants"][0]["attempt"])))
    codes += list(small_codes())
    out = []
    for name, p, t, rows in codes:
        syn = np.random.default_rng(len(out)).integers(0, p**t, size=(2, rows.shape[1]))
        out.append(record(name, p, t, rows, syn))
        print(name, len(out[-1]["runs"]), file=sys.stderr)
    json.dump({"full_budget": FULL, "codes": out}, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
