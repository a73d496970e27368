"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 3, 4-long and 7 certify defects in the reference material they
transcribe: the two worked examples do not attain their published distance
bounds, and the telescoped bound formula is not sound.  Those criteria assert
the true values (with an independent certificate for example41's distance)
and the sound bound that qckit reports next to the published formula; the
formula's own exceedances are printed as findings.  The analysis is in the
README section "Reference-material defects found by the suite" and in
test_gobound's frozen counterexamples.
"""

import time

import numpy as np
import pytest

from qckit.gf import field_make
from qckit.gobound import go_bound
from qckit.lincode import code_from_rows, dual_euclidean, min_distance
from qckit.qc import assemble_qc
from qckit.reproduce import (
    load_example,
    load_tables,
    run_cor35,
    run_example39,
    run_example41,
    run_example42,
    run_example43,
    run_tables,
)

import test_properties as props
from oracles import macwilliams_weights, naive_min_distance


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")


def _statuses(report, exclude=()):
    return {c.claim: c.status for c in report.checks
            if not any(tag in c.claim for tag in exclude)}


def test_criterion_1_factorization_fidelity():
    t0 = time.time()
    from qckit.poly import factor_xm1

    fs4 = factor_xm1(field_make(2, 2), 7)
    ok = ([(g.coeffs, gs.coeffs) for g, gs in fs4.pairs] == [((1, 1, 0, 1), (1, 0, 1, 1))]
          and [f.coeffs for f in fs4.selfrec] == [(1, 1)])
    fs3 = factor_xm1(field_make(3, 1), 11)
    ok &= [(g.coeffs, gs.coeffs) for g, gs in fs3.pairs] == [((2, 2, 1, 2, 0, 1), (2, 0, 1, 2, 1, 1))]
    fs5 = factor_xm1(field_make(5, 1), 11)
    ok &= [(g.coeffs, gs.coeffs) for g, gs in fs5.pairs] == [((4, 1, 1, 4, 2, 1), (4, 3, 1, 4, 4, 1))]
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _line(1, ok, f"factorization fidelity over F_4, F_3, F_5 ({elapsed:.2f}s)")
    assert ok


def test_criterion_2_d_table():
    t0 = time.time()
    rep = go_bound(*load_example("example41"))
    fx = load_tables()["example41"]["d_table"]
    got = {",".join(map(str, k)): {"gen": list(v.gen_poly.coeffs), "d": v.distance}
           for k, v in rep.d_table.items()}
    elapsed = time.time() - t0
    ok = got == fx and elapsed < 1.0
    _line(2, ok, f"seven associated cyclic codes with distances (4,4,7,2,3,3,1) ({elapsed:.2f}s)")
    assert ok


def _certified_distance_f4(code):
    """Minimum distance of a code over F_4 from the MacWilliams transform of
    its Euclidean dual's weight distribution, independently of the distance
    engine.

    The dual is enumerated in counting order with the 4x4 multiplication
    table and XOR addition (F_4 indices are coefficient bit vectors).  It is
    certified as the dual: its rows are orthogonal to the code's rows,
    k + k_dual = n, and all q^k_dual enumerated words are distinct.
    """
    fld, n = code.field, code.n
    assert fld.order == 4
    mul = np.array([[fld.mul(a, b) for b in range(4)] for a in range(4)], dtype=np.uint8)
    gen = np.asarray(code.gen, dtype=np.uint8)
    dual = np.asarray(dual_euclidean(code).gen, dtype=np.uint8)
    assert code.k + dual.shape[0] == n
    inner = np.zeros((gen.shape[0], dual.shape[0]), dtype=np.uint8)
    for j in range(n):
        inner ^= mul[gen[:, j][:, None], dual[:, j][None, :]]
    assert not inner.any(), "dual rows are not orthogonal to the code"
    words = np.zeros((1, n), dtype=np.uint8)
    for row in dual:  # row i carries message digit i, weight 4^i
        words = np.concatenate([words ^ mul[c, row] for c in range(4)])
    keys = (words.astype(np.int64) << (2 * np.arange(n))).sum(axis=1)
    assert np.unique(keys).size == len(words) == 4 ** dual.shape[0]
    dual_weights = np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    weights = macwilliams_weights([int(b) for b in dual_weights], n, 4, len(words))
    assert weights[0] == 1 and sum(weights) == 4**code.k
    d = next(w for w in range(1, n + 1) if weights[w])
    return d, weights[d]


@pytest.mark.paperdefect
def test_criterion_3_example41_end_to_end():
    t0 = time.time()
    rep = run_example41(budget=2**25)
    elapsed = time.time() - t0
    structural = {c.claim: c.status for c in rep.checks}
    dist_claim = "exact minimum distance attains the published bound (>= 7 and >= d_GO)"
    others_ok = all(s in ("pass", "flagged") for claim, s in structural.items()
                    if claim != dist_claim)
    # the published constituents fix the code, and its true distance is 5:
    # the claim must be reported as failed, with the certified value
    dist_failed = structural[dist_claim] == "fail" and rep.results["exact_distance"] == 5
    dec, asn = load_example("example41")
    d_cert, a_d = _certified_distance_f4(assemble_qc(dec, asn).lin)
    go = go_bound(dec, asn)
    ok = (others_ok and dist_failed and (d_cert, a_d) == (5, 63)
          and go.d_go == 7 and go.d_sound == 3 <= d_cert and elapsed < 300)
    _line(3, ok,
          f"[21,12] end-to-end: structure {'ok' if others_ok else 'BROKEN'}; "
          f"published d >= 7 reported {structural[dist_claim]} with exact d = "
          f"{rep.results['exact_distance']} (MacWilliams: d = {d_cert}, A_{d_cert} = {a_d}); "
          f"formula d_GO = {go.d_go}, sound bound {go.d_sound} ({elapsed:.1f}s)")
    assert others_ok and elapsed < 300
    assert dist_failed, (
        f"the distance claim should fail with exact d = 5, got {structural[dist_claim]} "
        f"with d = {rep.results['exact_distance']}; see the README section "
        f"\"Reference-material defects found by the suite\"")
    assert (d_cert, a_d) == (5, 63)
    assert go.d_go == 7 and go.d_sound == 3 <= d_cert


def test_criterion_4_example42_default():
    t0 = time.time()
    rep = run_example42(budget=2**25, long_mode=False)
    elapsed = time.time() - t0
    ok = not rep.failed and elapsed < 10
    _line(4, ok, f"[56,30] default run (bound formula 14, tables replayed) ({elapsed:.1f}s)")
    assert ok


@pytest.mark.paperdefect
def test_criterion_4_example42_long():
    t0 = time.time()
    rep = run_example42(budget=2**25, long_mode=True)
    elapsed = time.time() - t0
    dist_claim = "exact minimum distance attains the published bound (>= 14)"
    status = {c.claim: c.status for c in rep.checks}[dist_claim]
    exact = rep.results.get("exact_distance")
    go = go_bound(*load_example("example42"))
    ok = (status == "fail" and exact == 8 and go.d_go == 14 and go.d_sound == 6 <= exact
          and elapsed < 60)
    _line("4-long", ok,
          f"exact run: published d >= 14 reported {status} with exact d = {exact}; "
          f"formula d_GO = {go.d_go}, sound bound {go.d_sound} ({elapsed:.0f}s)")
    assert elapsed < 60
    assert status == "fail" and exact == 8, (
        f"the distance claim should fail with exact d = 8, got {status} with d = {exact}; "
        f"see the README section \"Reference-material defects found by the suite\"")
    assert go.d_go == 14 and go.d_sound == 6 <= exact


def test_criterion_5_family_ledgers():
    t0 = time.time()
    rep = run_cor35()
    rep39 = run_example39()
    elapsed = time.time() - t0
    ledger_ok = not rep.failed
    flagged = [c for c in rep39.checks if c.status == "flagged"]
    ok = ledger_ok and not rep39.failed and len(flagged) == 1 and elapsed < 30
    _line(5, ok,
          f"family ledgers: [5*11^u,(5*11^u-1)/2,>=3*11^(u-1)] with u=1 rank 27 ESO; "
          f"published [4*11^u,2*11^u] flagged ({elapsed:.1f}s)")
    assert ok


def test_criterion_6_tables():
    t0 = time.time()
    rep = run_tables()
    elapsed = time.time() - t0
    ok = not rep.failed and len(rep.checks) == 10 and elapsed < 5
    _line(6, ok, f"both three-factor modulus tables reproduced exactly ({elapsed:.1f}s)")
    assert ok


@pytest.mark.paperdefect
def test_criterion_7_property_suites():
    t0 = time.time()
    dual_bad = props.run_dual_suite(200)
    go_violations, formula_exceedances = props.run_go_soundness_suite(100)
    phi_bad = props.run_phi_suite()
    galois_bad = props.run_galois_suite(100)
    family_bad = props.run_family_sqrt_suite()
    elapsed = time.time() - t0
    parts = {
        "duals/Hermitian-identity (200 codes)": dual_bad,
        "sound bound (100 assignments)": go_violations,
        "phi/orthogonality (exhaustive pairs)": phi_bad,
        "closure equivalence (100 assignments)": galois_bad,
        "power inequality + sqrt-like ledgers": family_bad,
    }
    ok = all(not v for v in parts.values()) and elapsed < 120
    detail = "; ".join(f"{k}: {'ok' if not v else f'{len(v)} violations'}" for k, v in parts.items())
    _line(7, ok, f"{detail} ({elapsed:.1f}s)")
    print(f"[FINDING] criterion 7: the published telescoped formula exceeded the exact "
          f"distance on {len(formula_exceedances)} of 100 assignments: "
          + ", ".join(f"(q={c['q']}, m={c['m']}, ell={c['ell']}: exact {c['exact']}, "
                      f"formula {c['formula']})" for c in formula_exceedances))
    assert elapsed < 120
    assert not dual_bad and not phi_bad and not galois_bad and not family_bad
    assert not go_violations, (
        f"the sound bound exceeded the exact distance on {len(go_violations)} "
        f"of 100 random assignments: {go_violations[:3]}")


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    fields = [field_make(2, 1), field_make(3, 1), field_make(2, 2),
              field_make(5, 1), field_make(3, 2)]
    checked = 0
    for i in range(60):
        fld = fields[i % len(fields)]
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(n, 8) + 1))
        c = code_from_rows(fld, n, rng.integers(0, fld.order, size=(k, n)))
        if c.k == 0 or fld.order**c.k > 10**5:
            continue
        want = naive_min_distance(c)
        got = min_distance(c).d_exact
        assert want == got, (fld, n, c.k, want, got)
        checked += 1
    elapsed = time.time() - t0
    ok = checked >= 40
    _line(8, ok, f"distance engine matches the counting-order oracle on "
                 f"{checked} codes ({elapsed:.1f}s)")
    assert ok
