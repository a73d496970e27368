"""Time assemble_qc on the three-factor rows of the paper's tables.

    python3 tools/assemble_reach.py [--timeout 120] [--out FILE]

Run it from the root of the repository.  For every (q, m) row of the
three-factor tables in src/qckit/data/paper_tables.json whose constituent
field F_{q^d} (d the largest q-cyclotomic coset size mod m) has order at most
2^62, so that its elements fit the int64 index API, one subprocess at a time
times decompose_ring(F_q, m, 2) and assemble_qc with every constituent the
full space, then checks that the code has rank 2m and is shift invariant.
A row that outlives --timeout seconds is killed and reported as "timeout";
each row's address space is capped at ROW_MEMORY_BYTES, so code that
tabulates a whole large field fails with a MemoryError ("error") instead of
taking the machine's memory.

The output is JSON: the host, and one record per row with q, m, the
constituent order, status ("ok", "timeout" or "error"), decompose_s,
assemble_s, the rank and the shift-invariance flag.  The exit status is 1
when any row is not "ok".
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qckit.gf import DEFAULT_ORDER_CAP, field_from_order  # noqa: E402
from qckit.poly import cyclotomic_cosets  # noqa: E402
from qckit.qc import assemble_qc, assignment_all_full, decompose_ring, is_shift_invariant  # noqa: E402

ELL = 2
ROW_MEMORY_BYTES = 2 * 2**30


def rows() -> list[tuple[int, int, int]]:
    """(q, m, constituent order) of every three-factor row within the cap."""
    tables = json.loads((ROOT / "src/qckit/data/paper_tables.json").read_text())["three_factor_tables"]
    out = []
    for kind in ("base", "square"):
        for q_str, ms in tables[kind].items():
            q = int(q_str)
            for m in ms:
                order = q ** max(len(c) for c in cyclotomic_cosets(q, m).cosets)
                if order <= DEFAULT_ORDER_CAP:
                    out.append((q, m, order))
    return out


def measure(q: int, m: int) -> dict:
    """One row, in this process."""
    t0 = time.perf_counter()
    decomp = decompose_ring(field_from_order(q), m, ELL)
    t1 = time.perf_counter()
    qc = assemble_qc(decomp, assignment_all_full(decomp))
    t2 = time.perf_counter()
    return {"decompose_s": round(t1 - t0, 4), "assemble_s": round(t2 - t1, 4),
            "rank": qc.k, "shift_invariant": is_shift_invariant(qc)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--timeout", type=float, default=120.0, help="seconds per row")
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    ap.add_argument("--row", type=int, nargs=2, metavar=("Q", "M"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.row:  # the per-row subprocess
        resource.setrlimit(resource.RLIMIT_AS, (ROW_MEMORY_BYTES, ROW_MEMORY_BYTES))
        print(json.dumps(measure(*args.row)))
        return 0
    records = []
    for q, m, order in rows():
        rec = {"q": q, "m": m, "constituent_order": order}
        cmd = [sys.executable, __file__, "--row", str(q), str(m)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            rec["status"] = "timeout"
        else:
            if proc.returncode == 0:
                rec.update(status="ok", **json.loads(proc.stdout))
            else:
                rec.update(status="error", stderr=proc.stderr.strip().splitlines()[-1:])
        print(json.dumps(rec), file=sys.stderr, flush=True)
        records.append(rec)
    text = json.dumps({"host": {"machine": platform.machine(), "python": platform.python_version()},
                       "ell": ELL, "timeout_s": args.timeout, "rows": records}, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if all(rec["status"] == "ok" for rec in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
