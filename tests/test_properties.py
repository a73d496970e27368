"""Fixed-seed randomized property suites.

The five suites mirror the acceptance gate's property criteria; the helpers
return their findings so the acceptance module can re-run them and report
one line per suite.  Seed 12345 throughout; no seed was searched for.
"""

import math

import numpy as np
import pytest

from qckit.gf import field_from_order, field_make
from qckit.lincode import (
    code_from_rows,
    code_power_q,
    dual_euclidean,
    dual_hermitian,
    duality_class,
    is_galois_closed,
    min_distance,
    subspace_leq,
)
from qckit.gobound import go_bound
from qckit.qc import (
    ConstituentAssignment,
    DistanceInfo,
    FamilyPlan,
    PairAssignment,
    SelfrecAssignment,
    assemble_qc,
    build_family,
    decompose_ring,
    extract_assignment,
    galois_closure_theorem_check,
    phi,
    phi_inv,
    r_hermitian_ip,
    shift,
    sqrt_like_check,
)

SEED = 12345


def run_dual_suite(n_codes: int = 200):
    """Dual involution, dimension sum, and the Hermitian-vs-Frobenius identity."""
    rng = np.random.default_rng(SEED)
    fields = [field_make(2, 1), field_make(3, 1), field_make(2, 2), field_make(3, 2)]
    bad = []
    for i in range(n_codes):
        fld = fields[i % len(fields)]
        n = int(rng.integers(2, 9))
        k = int(rng.integers(0, n + 1))
        c = code_from_rows(fld, n, rng.integers(0, fld.order, size=(k, n)))
        d = dual_euclidean(c)
        if c.k + d.k != n or dual_euclidean(d) != c:
            bad.append(("euclidean", fld.order, n, c.k))
        if fld.t % 2 == 0:
            r = fld.p ** (fld.t // 2)
            h = dual_hermitian(c)
            if c.k + h.k != n or dual_hermitian(h) != c:
                bad.append(("hermitian", fld.order, n, c.k))
            if h != dual_euclidean(code_power_q(c, r)):
                bad.append(("frobenius-dual-identity", fld.order, n, c.k))
            if duality_class(c).hso != subspace_leq(code_power_q(c, r), dual_euclidean(c)):
                bad.append(("hso-identity", fld.order, n, c.k))
    return bad


def _random_assignment(rng, dec, ell, dim_cap):
    pairs = []
    total = 0
    for sg, sgs in dec.pair_slots:
        kp = int(rng.integers(0, ell + 1))
        kd = int(rng.integers(0, ell + 1))
        cp = code_from_rows(sg.cfield, ell, rng.integers(0, sg.cfield.order, size=(kp, ell)))
        cd = code_from_rows(sgs.cfield, ell, rng.integers(0, sgs.cfield.order, size=(kd, ell)))
        pairs.append(PairAssignment(cp, cd))
        total += (cp.k + cd.k) * sg.degree
    selfrec = []
    for slot in dec.selfrec_slots:
        ks = int(rng.integers(0, ell + 1))
        c = code_from_rows(slot.cfield, ell, rng.integers(0, slot.cfield.order, size=(ks, ell)))
        selfrec.append(SelfrecAssignment(c))
        total += c.k * slot.degree
    return ConstituentAssignment(tuple(pairs), tuple(selfrec)), total


def run_go_soundness_suite(n_cases: int = 100):
    """Exact flat distance vs both constituent bounds on random assignments.

    Returns (violations, exceedances): the cases where the sound bound
    d_sound exceeds the exact distance, which must never happen, and the
    cases where the published telescoped formula d_go does, which are
    findings about the reference material (see the README section
    "Reference-material defects found by the suite").
    """
    rng = np.random.default_rng(SEED)
    violations = []
    exceedances = []
    cases = 0
    while cases < n_cases:
        q = int(rng.choice([2, 3, 4]))
        m = int(rng.choice([3, 5, 7]))
        if math.gcd(m, q) != 1:
            continue
        ell = int(rng.integers(1, 5))
        fld = field_from_order(q)
        dec = decompose_ring(fld, m, ell)
        asn, total = _random_assignment(rng, dec, ell, 2**18)
        if total == 0 or q**total > 2**18:
            continue
        qc = assemble_qc(dec, asn)
        rep = go_bound(dec, asn, 2**20)
        exact = min_distance(qc.lin, budget=2**20, mode="exact").d_exact
        cases += 1
        case = {"q": q, "m": m, "ell": ell, "exact": exact,
                "sound": rep.d_sound, "formula": rep.d_go}
        if exact < rep.d_sound:
            violations.append(case)
        if exact < rep.d_go:
            exceedances.append(case)
    return violations, exceedances


def run_phi_suite():
    """phi bijectivity, shift intertwining, and orthogonality correspondence."""
    bad = []
    rng = np.random.default_rng(SEED)
    for (m, ell) in ((3, 2), (5, 2), (3, 3)):
        for fld in (field_make(2, 1), field_make(3, 1)):
            for _ in range(40):
                a = rng.integers(0, fld.order, size=m * ell)
                b = rng.integers(0, fld.order, size=m * ell)
                if not np.array_equal(phi_inv(phi(a, m, ell), m, ell), a):
                    bad.append(("bijection", fld.order, m, ell))
                pa = phi(shift(a, ell), m, ell)
                ref = phi(a, m, ell)
                if any(not np.array_equal(pa[j], np.roll(ref[j], 1)) for j in range(ell)):
                    bad.append(("intertwine", fld.order, m, ell))
                ips = []
                for k in range(m):
                    s = shift(a, k * ell)
                    val = 0
                    for x, y in zip(s, b):
                        val = fld.add(val, fld.mul(int(x), int(y)))
                    ips.append(val)
                lhs = not any(ips)
                rhs = not r_hermitian_ip(fld, phi(a, m, ell), phi(b, m, ell)).any()
                if lhs != rhs:
                    bad.append(("orthogonality", fld.order, m, ell))
    return bad


def run_galois_suite(n_cases: int = 100):
    """Flat Galois closure vs slotwise closure, both sides computed
    independently, on decompositions whose cosets are aligned under the
    conjugation base (m = 7 over F_4, m = 13 over F_9)."""
    rng = np.random.default_rng(SEED)
    disagreements = []
    cases = 0
    while cases < n_cases:
        fld, m, r = ((field_make(2, 2), 7, 2), (field_make(3, 2), 13, 3))[cases % 2]
        ell = int(rng.integers(1, 4)) if fld.order == 4 else int(rng.integers(1, 3))
        dec = decompose_ring(fld, m, ell)
        asn, total = _random_assignment(rng, dec, ell, 2**16)
        qc = assemble_qc(dec, asn)
        chk = galois_closure_theorem_check(qc, r)
        cases += 1
        if not chk["aligned"] or not chk["agree"]:
            disagreements.append({"q": fld.order, "m": m, "ell": ell, **chk})
    return disagreements


def run_family_sqrt_suite():
    """The u >= 2 power inequality and the square-root-like floor on ledgers."""
    bad = []
    for m in (3, 5, 7, 11, 13):
        for u in range(2, 6):
            if math.isqrt(m**u) ** 2 == m**u:
                if not math.sqrt(m**u) <= m ** (u - 1) + 1e-9:
                    bad.append(("power-inequality", m, u))
            elif not m**u <= m ** (2 * (u - 1)):
                bad.append(("power-inequality", m, u))
    f3 = field_make(3, 1)
    dec = decompose_ring(f3, 11, 5)
    sg = dec.pair_slots[0][0]
    F243 = sg.cfield
    from qckit.gf import _embedding_pair

    a = _embedding_pair(F243, dec.common_field)[1][dec.alpha_pow(sg.exponent)]
    cp = code_from_rows(F243, 5, [(1, 2, 1, 2, 1), [F243.pow_(a, i) for i in range(1, 6)]])
    cs = code_from_rows(f3, 5, [(1, 1, 1, 0, 0), (1, 2, 0, 1, 0)])
    asn = ConstituentAssignment(
        (PairAssignment(cp, None, DistanceInfo(4, True), DistanceInfo(3, True)),),
        (SelfrecAssignment(cs, DistanceInfo(3, True)),))
    levels = build_family(FamilyPlan(f3, 11, 5, asn, u_max=5, kind="ESO", materialize_max=60))
    res = sqrt_like_check(levels, 5, c=3 / math.sqrt(5))
    if not res["all_ok"]:
        bad.append(("sqrt-like", res))
    return bad


def test_dual_suite():
    assert run_dual_suite() == []


@pytest.mark.paperdefect
def test_go_soundness_suite():
    violations, exceedances = run_go_soundness_suite()
    # The sound bound must hold on every case.  The published telescoped
    # formula does not (see the README section "Reference-material defects
    # found by the suite" and test_gobound's frozen counterexamples); its
    # exceedances are reported as findings, not judged here.
    print(f"telescoped formula exceeded the exact distance on {len(exceedances)} "
          f"of 100 cases: {exceedances}")
    assert violations == [], f"sound bound exceeded the exact distance: {violations}"


def test_phi_suite():
    assert run_phi_suite() == []


def test_galois_suite():
    assert run_galois_suite() == []


def test_family_sqrt_suite():
    assert run_family_sqrt_suite() == []


def test_extraction_matches_random_assignments():
    rng = np.random.default_rng(SEED)
    f2 = field_make(2, 1)
    dec = decompose_ring(f2, 7, 3)
    for _ in range(10):
        asn, _ = _random_assignment(rng, dec, 3, None)
        qc = assemble_qc(dec, asn)
        ext = extract_assignment(dec, qc.lin)
        for got, want in zip(ext.pairs, asn.pairs):
            assert got.cprime == want.cprime and got.cdouble == want.cdouble_code()
