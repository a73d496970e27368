import numpy as np
import pytest

from qckit import qc as qc_module
from qckit.errors import (
    ConstituentNotHSO,
    DualMismatch,
    LengthMismatch,
    NotNested,
    OrderingViolated,
    RankMismatch,
    SlotSNotESO,
)
from qckit import lincode
from qckit.gf import _embedding_pair, field_make
from qckit.lincode import (
    code_from_rows,
    code_power_q,
    concat_copies,
    dual_euclidean,
    dual_hermitian,
    duality_class,
    full_space,
    grs_code,
    is_galois_closed,
    juxtapose,
    min_distance,
    subspace_leq,
    zero_code,
)
from qckit.qc import (
    ConstituentAssignment,
    DistanceInfo,
    FamilyPlan,
    PairAssignment,
    QcCode,
    SelfrecAssignment,
    assemble_qc,
    assignment_all_full,
    assignment_all_zero,
    build_family,
    constituent_at_exponent,
    decompose_ring,
    dim_from_constituents,
    extract_assignment,
    galois_closure_theorem_check,
    is_galois_closed_qc,
    is_shift_invariant,
    phi,
    phi_inv,
    qc_dual,
    qc_duality_class,
    r_hermitian_ip,
    ring_conj,
    ring_mul,
    shift,
    sqrt_like_check,
)
from qckit.poly import Poly
from qckit.quantum import css
from qckit.reproduce import _example42_assignment, load_tables

from oracles import eliminated_duality_flags, scalar_rref

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)


@pytest.fixture(scope="module")
def dec47():
    return decompose_ring(F4, 7, 3)


@pytest.fixture(scope="module")
def ex41(dec47):
    F64 = dec47.pair_slots[0][0].cfield
    cp = code_from_rows(F64, 3, [(F64.gen,) * 3])
    asn = ConstituentAssignment((PairAssignment(cp),),
                                (SelfrecAssignment(full_space(F4, 3)),))
    return assemble_qc(dec47, asn)


def test_decompose_shapes(dec47):
    sg, sgs = dec47.pair_slots[0]
    assert (sg.cfield.order, sgs.cfield.order) == (64, 64)
    assert sg.exponent == 1 and sgs.exponent == 6  # partner exponent is -v mod m
    f1 = dec47.selfrec_slots[0]
    assert f1.cfield.order == 4 and f1.exponent == 0 and f1.exceptional

    dec2 = decompose_ring(F2, 7, 8)
    assert {s.cfield.order for s in dec2.slots} == {8, 2}

    dec1 = decompose_ring(F5, 1, 4)
    assert len(dec1.slots) == 1 and dec1.slots[0].factor.coeffs == (4, 1)


def test_phi():
    v = np.zeros(6, dtype=np.int64)
    assert not phi(v, 3, 2).any()
    arr = phi(np.array([1, 2, 3, 4]), 2, 2)  # (a,b,c,d): columns a+cx, b+dx
    assert arr.tolist() == [[1, 3], [2, 4]]
    rng = np.random.default_rng(0)
    for _ in range(10):
        vec = rng.integers(0, 3, size=15)
        assert np.array_equal(phi_inv(phi(vec, 5, 3), 5, 3), vec)
    with pytest.raises(LengthMismatch):
        phi(np.zeros(5, dtype=np.int64), 2, 2)


def test_phi_intertwines_shift_with_x():
    # T^ell on the flat vector = multiplication by x on every column
    rng = np.random.default_rng(1)
    for (m, ell, fld) in ((3, 2, F2), (5, 2, F3), (3, 3, F3)):
        for _ in range(8):
            vec = rng.integers(0, fld.order, size=m * ell)
            shifted = phi(shift(vec, ell), m, ell)
            original = phi(vec, m, ell)
            for j in range(ell):
                assert np.array_equal(shifted[j], np.roll(original[j], 1))


def test_ring_conj_and_hermitian_ip():
    c = np.array([0, 1, 0], dtype=np.int64)  # x with m = 3
    assert ring_conj(F2, c).tolist() == [0, 0, 1]  # conj(x) = x^2
    x = np.zeros((2, 3), dtype=np.int64)
    assert not r_hermitian_ip(F2, x, x).any()


def test_ring_mul_matches_poly_product_mod_xm_minus_1():
    rng = np.random.default_rng(9)
    for fld in (F2, F4, F5):
        for m in (1, 2, 5, 7):
            xm1 = Poly.x_pow_minus_one(fld, m)
            for _ in range(10):
                a = rng.integers(0, fld.order, size=m)
                b = rng.integers(0, fld.order, size=m)
                want = (Poly.make(fld, a) * Poly.make(fld, b)).divmod_(xm1)[1]
                got = ring_mul(fld, a, b)
                assert Poly.make(fld, got) == want
                assert got.shape == (m,)


def test_prop22_orthogonality_correspondence():
    # <phi(a), phi(b)>_H = 0 iff all T^{k ell} shifts of a are orthogonal to b
    rng = np.random.default_rng(2)
    for (m, ell, fld) in ((3, 2, F2), (5, 2, F3), (3, 3, F3), (3, 3, F2)):
        for _ in range(60):
            a = rng.integers(0, fld.order, size=m * ell)
            b = rng.integers(0, fld.order, size=m * ell)
            ips = []
            for k in range(m):
                s = shift(a, k * ell)
                val = 0
                for x, y in zip(s, b):
                    val = fld.add(val, fld.mul(int(x), int(y)))
                ips.append(val)
            lhs = not any(ips)
            rhs = not r_hermitian_ip(fld, phi(a, m, ell), phi(b, m, ell)).any()
            assert lhs == rhs


def test_assemble_trivial(dec47):
    assert assemble_qc(dec47, assignment_all_zero(dec47)).k == 0
    assert assemble_qc(dec47, assignment_all_full(dec47)).k == 21


def test_assemble_example(ex41, dec47):
    assert (ex41.n, ex41.k) == (21, 12)
    assert dim_from_constituents(dec47, ex41.assignment) == 12
    assert is_shift_invariant(ex41)
    flags = duality_class(ex41.lin)
    assert flags.edc and not flags.eso
    # frozen exact distance of this construction: the published bound 7 is
    # not attained and the weight-5 orbit is real (see the README section
    # "Reference-material defects found by the suite")
    assert min_distance(ex41.lin, budget=2**25).d_exact == 5


def test_extraction_round_trip(ex41, dec47):
    ext = extract_assignment(dec47, ex41.lin)
    assert ext.pairs[0].cprime == ex41.assignment.pairs[0].cprime
    assert ext.pairs[0].cdouble == dual_euclidean(ex41.assignment.pairs[0].cprime)
    assert ext.selfrec[0].code == ex41.assignment.selfrec[0].code


def test_extraction_random_round_trip():
    rng = np.random.default_rng(3)
    for (fld, m, ell) in ((F2, 7, 2), (F3, 5, 2), (F4, 3, 3)):
        dec = decompose_ring(fld, m, ell)
        for _ in range(5):
            pairs = []
            for sg, sgs in dec.pair_slots:
                kp, kd = rng.integers(0, ell + 1, size=2)
                pairs.append(PairAssignment(
                    code_from_rows(sg.cfield, ell, rng.integers(0, sg.cfield.order, size=(kp, ell))),
                    code_from_rows(sgs.cfield, ell, rng.integers(0, sgs.cfield.order, size=(kd, ell))),
                ))
            selfrec = []
            for slot in dec.selfrec_slots:
                ks = int(rng.integers(0, ell + 1))
                selfrec.append(SelfrecAssignment(
                    code_from_rows(slot.cfield, ell, rng.integers(0, slot.cfield.order, size=(ks, ell)))))
            asn = ConstituentAssignment(tuple(pairs), tuple(selfrec))
            qc = assemble_qc(dec, asn)
            assert is_shift_invariant(qc)
            assert qc.k == dim_from_constituents(dec, asn)
            ext = extract_assignment(dec, qc.lin)
            for got, want in zip(ext.pairs, asn.pairs):
                assert got.cprime == want.cprime and got.cdouble == want.cdouble_code()
            for got, want in zip(ext.selfrec, asn.selfrec):
                assert got.code == want.code


def test_qc_duality_witness(ex41, dec47):
    rep = qc_duality_class(ex41)
    assert rep.flags.edc and rep.witness_edc and rep.agree
    labels = [w.label for w in rep.witness]
    assert labels == ["(g1,g*1)", "f1"]
    # the zero code is ESO but not EDC
    qz = assemble_qc(dec47, assignment_all_zero(dec47))
    rz = qc_duality_class(qz)
    assert rz.flags.eso and not rz.flags.edc and rz.agree


def test_qc_dual(ex41, dec47):
    qd = qc_dual(ex41)  # cross-asserts the constituent-level prediction inside
    assert (qd.n, qd.k) == (21, 9)
    assert qd.lin == dual_euclidean(ex41.lin)
    # dual of the zero QC code is the full space
    qz = assemble_qc(dec47, assignment_all_zero(dec47))
    assert qc_dual(qz).k == 21
    # a self-dual construction equals its own dual (x - 1 slot over F_5)
    dec5 = decompose_ring(F5, 11, 6)
    F3125 = dec5.pair_slots[0][0].cfield
    from qckit.lincode import grs_code

    cp = grs_code(F3125, [0, 1, 2, 3, 4, 5], [1] * 6, 3)
    cs = code_from_rows(F5, 6, [(1, 0, 0, 2, 2, 4), (0, 1, 0, 2, 4, 2), (0, 0, 1, 4, 2, 2)])
    qc = assemble_qc(dec5, ConstituentAssignment((PairAssignment(cp),),
                                                 (SelfrecAssignment(cs),)))
    assert qc_dual(qc).lin == qc.lin


def test_assembly_rank_check_raises(dec47, monkeypatch):
    # a typed error, so the check also runs under python -O
    monkeypatch.setattr(qc_module, "dim_from_constituents", lambda decomp, asn: 99)
    with pytest.raises(RankMismatch):
        assemble_qc(dec47, assignment_all_full(dec47))


def test_qc_dual_cross_check_raises(ex41, monkeypatch):
    real = qc_module.assemble_qc
    monkeypatch.setattr(qc_module, "assemble_qc",
                        lambda decomp, asn: real(decomp, assignment_all_zero(decomp)))
    with pytest.raises(DualMismatch):
        qc_dual(ex41)


def test_missing_provenance_dual(ex41):
    from qckit.qc import QcCode

    bare = QcCode(ex41.lin, ex41.m, ex41.ell)
    qd = qc_dual(bare)
    assert qd.k == 9 and qd.assignment is None


def test_galois_closure_theorem(ex41, dec47):
    chk = galois_closure_theorem_check(ex41, 2)
    assert chk["aligned"] and chk["flat_closed"] and chk["agree"]
    # a deliberately non-closed constituent
    F64 = dec47.pair_slots[0][0].cfield
    cp = code_from_rows(F64, 3, [(1, F64.gen, 0)])
    qc = assemble_qc(dec47, ConstituentAssignment(
        (PairAssignment(cp),), (SelfrecAssignment(zero_code(F4, 3)),)))
    chk2 = galois_closure_theorem_check(qc, 2)
    assert not chk2["flat_closed"] and chk2["agree"]
    qz = assemble_qc(dec47, assignment_all_zero(dec47))
    assert is_galois_closed_qc(qz, 2)


def _cor35_plan(u_max=3, materialize_max=60):
    dec = decompose_ring(F3, 11, 5)
    sg = dec.pair_slots[0][0]
    F243 = sg.cfield
    a = _embedding_pair(F243, dec.common_field)[1][dec.alpha_pow(sg.exponent)]
    cp = code_from_rows(F243, 5, [(1, 2, 1, 2, 1), [F243.pow_(a, i) for i in range(1, 6)]])
    cs = code_from_rows(F3, 5, [(1, 1, 1, 0, 0), (1, 2, 0, 1, 0)])
    asn = ConstituentAssignment(
        (PairAssignment(cp, None, DistanceInfo(4, True), DistanceInfo(3, True)),),
        (SelfrecAssignment(cs, DistanceInfo(3, True)),),
    )
    return FamilyPlan(F3, 11, 5, asn, u_max=u_max, kind="ESO", materialize_max=materialize_max)


def test_build_family_ledger():
    levels = build_family(_cor35_plan())
    assert [lv.params() for lv in levels] == \
        [(5 * 11**u, (5 * 11**u - 1) // 2, 3 * 11**(u - 1)) for u in (1, 2, 3)]
    lv1 = levels[0]
    assert lv1.qc is not None and lv1.rank_checked and lv1.duality_checked
    assert levels[1].qc is None  # beyond the materialization cap


def test_build_family_u1_matches_direct_computation():
    levels = build_family(_cor35_plan(u_max=1))
    lv1 = levels[0]
    assert lv1.k == lv1.qc.k == 27


def test_family_f4_dimension_formula():
    # the second worked construction: EDC family over F_4 with m = 7
    dec = decompose_ring(F4, 7, 3)
    F64 = dec.pair_slots[0][0].cfield
    cp = code_from_rows(F64, 3, [(F64.gen,) * 3])
    cs = code_from_rows(F4, 3, [(0, 1, 2), (1, 0, 3)])
    asn = ConstituentAssignment(
        (PairAssignment(cp, None, DistanceInfo(3, True), DistanceInfo(2, True)),),
        (SelfrecAssignment(cs, DistanceInfo(2, True)),),
    )
    plan = FamilyPlan(F4, 7, 3, asn, u_max=3, kind="EDC", materialize_max=24)
    levels = build_family(plan)
    # dimension follows the recursion formula 3(7^u - 1)/2 + 2; the published
    # 3(7^u + 1)/2 contradicts the stated [3,2,2] constituent (see the README
    # section "Reference-material defects found by the suite")
    assert [lv.k for lv in levels] == [11, 74, 515]
    assert [lv.n for lv in levels] == [21, 147, 1029]
    assert [lv.d_lower for lv in levels] == [2, 14, 98]
    assert levels[0].duality_checked  # EDC propagates


def test_family_hypothesis_errors():
    plan = _cor35_plan()
    # not-ESO slot-s code
    bad_cs = SelfrecAssignment(full_space(F3, 5), DistanceInfo(1, True))
    bad = ConstituentAssignment(plan.base.pairs, (bad_cs,))
    with pytest.raises(SlotSNotESO):
        build_family(FamilyPlan(F3, 11, 5, bad, u_max=2, kind="ESO"))
    # ordering violated: a pair code with distance below the x-1 slot's
    sg = decompose_ring(F3, 11, 5).pair_slots[0][0]
    low = code_from_rows(sg.cfield, 5, [(1, 0, 0, 0, 0)])
    bad2 = ConstituentAssignment(
        (PairAssignment(low, None, DistanceInfo(1, True), DistanceInfo(1, True)),),
        plan.base.selfrec,
    )
    with pytest.raises(OrderingViolated):
        build_family(FamilyPlan(F3, 11, 5, bad2, u_max=2, kind="ESO"))


def test_family_hso_slot_check():
    # a self-reciprocal slot before x-1 that is not self-orthogonal
    f2 = F2
    dec = decompose_ring(f2, 9, 2)  # cosets {0},{1,2,4,8,7,5},{3,6}: two selfrec + pair? check
    sr = dec.selfrec_slots
    assert len(sr) >= 2
    pairs = tuple(PairAssignment(zero_code(sg.cfield, 2), zero_code(sg.cfield, 2))
                  for sg, _ in dec.pair_slots)
    codes = []
    for slot in sr[:-1]:
        codes.append(SelfrecAssignment(full_space(slot.cfield, 2), DistanceInfo(1, True)))
    eso_last = code_from_rows(f2, 2, [])
    codes.append(SelfrecAssignment(eso_last, DistanceInfo(3, True, "zero")))
    with pytest.raises((ConstituentNotHSO, SlotSNotESO, OrderingViolated)):
        build_family(FamilyPlan(f2, 9, 2, ConstituentAssignment(pairs, tuple(codes)),
                                u_max=2, kind="ESO"))


def test_sqrt_like_check():
    levels = build_family(_cor35_plan(materialize_max=56))
    import math

    res = sqrt_like_check(levels, 5, c=3 / math.sqrt(5))
    assert res["all_ok"] and set(res["per_level"]) == {2, 3}
    assert sqrt_like_check(levels, 5, c=0.0)["all_ok"]  # vacuous
    res_big = sqrt_like_check(levels, 5, c=10.0)
    assert not res_big["all_ok"]


def test_family_level2_materialization_eso():
    # the recursion's defining step (slot s receives the previous level's
    # flat code) checked materially at n = 605: rank, G.G^T = 0, shift closure
    levels = build_family(_cor35_plan(u_max=2, materialize_max=605))
    lv2 = levels[1]
    assert lv2.qc is not None and (lv2.n, lv2.k) == (605, 302)
    assert lv2.rank_checked and lv2.duality_checked
    from qckit.lincode import _gram

    assert not _gram(F3, lv2.qc.lin.gen, lv2.qc.lin.gen).any()
    assert is_shift_invariant(lv2.qc)


def test_duality_class_memory_at_n605():
    # A A^T and A^T A at n = 605 stay small: no k x k x n product table
    import tracemalloc

    lin = build_family(_cor35_plan(u_max=2, materialize_max=605))[1].qc.lin
    assert (lin.n, lin.k) == (605, 302)
    tracemalloc.start()
    try:
        flags = duality_class(lin)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flags.eso
    assert peak < 32 * 2**20, f"duality_class peaked at {peak / 2**20:.1f} MB"


def test_family_level2_materialization_edc():
    dec = decompose_ring(F4, 7, 3)
    F64 = dec.pair_slots[0][0].cfield
    cp = code_from_rows(F64, 3, [(F64.gen,) * 3])
    cs = code_from_rows(F4, 3, [(0, 1, 2), (1, 0, 3)])
    asn = ConstituentAssignment(
        (PairAssignment(cp, None, DistanceInfo(3, True), DistanceInfo(2, True)),),
        (SelfrecAssignment(cs, DistanceInfo(2, True)),))
    levels = build_family(FamilyPlan(F4, 7, 3, asn, u_max=2, kind="EDC",
                                     materialize_max=147))
    lv2 = levels[1]
    assert (lv2.n, lv2.k) == (147, 74)
    assert lv2.rank_checked and lv2.duality_checked  # EDC propagates to level 2
    assert subspace_leq(dual_euclidean(lv2.qc.lin), lv2.qc.lin)


def test_m_equals_one_assembly():
    # with m = 1 the only slot is x - 1 and the QC code is the constituent
    dec = decompose_ring(F5, 1, 4)
    cs = code_from_rows(F5, 4, [(1, 2, 3, 4)])
    qc = assemble_qc(dec, ConstituentAssignment((), (SelfrecAssignment(cs),)))
    assert qc.lin == cs


def test_hermitian_slot_self_duality():
    # m = 5 over F_2: the quartic self-reciprocal slot carries the Hermitian
    # product with conjugation 4; an HSD line there plus an ESD line on the
    # x - 1 slot assembles to a flat Euclidean self-dual [10,5] code
    from qckit.gf import primitive_mth_root

    dec = decompose_ring(F2, 5, 2)
    slot = dec.selfrec_slots[0]
    assert slot.degree == 4 and not slot.exceptional
    F16 = slot.cfield
    a = primitive_mth_root(F16, 5)
    line = code_from_rows(F16, 2, [(1, a)])
    assert duality_class(line).hsd
    esd_line = code_from_rows(F2, 2, [(1, 1)])
    qc = assemble_qc(dec, ConstituentAssignment(
        (), (SelfrecAssignment(line), SelfrecAssignment(esd_line))))
    rep = qc_duality_class(qc)
    assert rep.flags.esd and rep.agree and rep.witness_esd
    assert qc_dual(qc).lin == qc.lin


def test_qc_dual_transfer_on_hermitian_and_exceptional_slots():
    # random assignments on decompositions with non-exceptional self-reciprocal
    # slots (m = 9 over F_2) and with an x + 1 slot (m = 4 over F_3); qc_dual
    # cross-asserts its constituent-level prediction against the flat dual
    rng = np.random.default_rng(17)
    for fld, m in ((F2, 9), (F3, 4)):
        dec = decompose_ring(fld, m, 2)
        for _ in range(6):
            sr = []
            for slot in dec.selfrec_slots:
                k = int(rng.integers(0, 3))
                sr.append(SelfrecAssignment(code_from_rows(
                    slot.cfield, 2, rng.integers(0, slot.cfield.order, size=(k, 2)))))
            qc = assemble_qc(dec, ConstituentAssignment((), tuple(sr)))
            qc_dual(qc)  # raises on any transfer mismatch


def test_hso_slot_yields_eso_code():
    # an HSO constituent on a lone Hermitian slot makes the flat code ESO
    dec = decompose_ring(F3, 4, 2)
    F9 = dec.selfrec_slots[0].cfield
    a = next(x for x in range(9) if F9.pow_(x, 4) == 2)  # a^4 = -1
    hsd = code_from_rows(F9, 2, [(1, a)])
    assert duality_class(hsd).hsd
    z = zero_code(F3, 2)
    qc = assemble_qc(dec, ConstituentAssignment(
        (), (SelfrecAssignment(hsd), SelfrecAssignment(z), SelfrecAssignment(z))))
    rep = qc_duality_class(qc)
    assert rep.flags.eso and not rep.flags.edc and rep.agree


def family_plans() -> dict:
    """The cor35, example43 and example39 recipes from the reference tables,
    with level u = 2 materialized."""
    fx = load_tables()
    dec = decompose_ring(F3, 11, 5)
    F243 = dec.pair_slots[0][0].cfield
    a = _embedding_pair(F243, dec.common_field)[1][dec.alpha_pow(dec.pair_slots[0][0].exponent)]
    cp = code_from_rows(F243, 5, [fx["cor35"]["cprime_first_row"],
                                  [F243.pow_(a, i) for i in range(1, 6)]])
    cor35 = ConstituentAssignment(
        (PairAssignment(cp, None, DistanceInfo(4, True), DistanceInfo(3, True)),),
        (SelfrecAssignment(code_from_rows(F3, 5, fx["cor35"]["cs_rows"]), DistanceInfo(3, True)),))
    F64 = field_make(2, 6)
    example43 = ConstituentAssignment(
        (PairAssignment(code_from_rows(F64, 3, [(F64.gen,) * 3]), None,
                        DistanceInfo(3, True), DistanceInfo(2, True)),),
        (SelfrecAssignment(code_from_rows(F4, 3, fx["example43"]["cs_rows"]),
                           DistanceInfo(2, True)),))
    mds = DistanceInfo(4, True, "mds")
    example39 = ConstituentAssignment(
        (PairAssignment(grs_code(field_make(5, 5), range(6), [1] * 6, 3), None, mds, mds),),
        (SelfrecAssignment(code_from_rows(F5, 6, fx["example39"]["cs_rows"]), DistanceInfo(4, True)),))
    return {
        "cor35": FamilyPlan(F3, 11, 5, cor35, u_max=2, kind="ESO", materialize_max=605),
        "example43": FamilyPlan(F4, 7, 3, example43, u_max=2, kind="EDC", materialize_max=147),
        "example39": FamilyPlan(F5, 11, 6, example39, u_max=2, kind="ESD", materialize_max=726),
    }


def _example_qc_codes(ex41):
    """example41, example42 and the level-1 codes of the three family recipes."""
    dec42, asn42, _ = _example42_assignment()
    codes = {"example41": ex41, "example42": assemble_qc(dec42, asn42)}
    for name, plan in family_plans().items():
        codes[name] = assemble_qc(decompose_ring(plan.q_field, plan.m, plan.ell), plan.base)
    return codes


def test_qc_duality_flags_match_elimination_oracle(ex41):
    held = set()
    for name, qc in _example_qc_codes(ex41).items():
        flags = duality_class(qc.lin).to_json()
        assert flags == eliminated_duality_flags(qc.field, qc.lin.gen, qc.n), name
        held.update(flag for flag, value in flags.items() if value)
    assert {"ESO", "EDC", "ESD"} <= held


def test_shift_invariance_matches_rolled_elimination(ex41):
    rng = np.random.default_rng(41)
    codes = list(_example_qc_codes(ex41).values())
    for k in (1, 4, 9):
        v = rng.integers(0, 4, size=(k, 21))
        codes.append(QcCode(code_from_rows(F4, 21, v), 7, 3))  # almost surely not closed
        shifts = np.vstack([np.roll(v, 3 * i, axis=1) for i in range(7)])
        codes.append(QcCode(code_from_rows(F4, 21, shifts), 7, 3))  # closed by construction
    outcomes = []
    for qc in codes:
        rolled = scalar_rref(qc.field, np.roll(qc.lin.gen, qc.ell, axis=1))
        closed = rolled == (qc.lin.gen.tolist(), qc.lin.pivots)
        assert is_shift_invariant(qc) == closed
        outcomes.append(closed)
    assert True in outcomes and False in outcomes


def test_elimination_counts(ex41, monkeypatch):
    plans = family_plans()
    c = ex41.lin  # [21,12]_4, dual-containing
    line = code_from_rows(F4, 21, [[1] * 21])
    calls = []
    rref = lincode._rref

    def counted(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(lincode, "_rref", counted)

    def eliminations(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert eliminations(duality_class, c) == 0
    assert eliminations(concat_copies, c, 3) == 0
    assert eliminations(juxtapose, c, c) == 0
    assert eliminations(code_power_q, c, 2) == 0
    assert eliminations(is_galois_closed, c, 2) == 0
    assert eliminations(is_shift_invariant, ex41) == 0
    assert eliminations(qc_duality_class, ex41) == 0  # a dual-mode pair holds by construction
    assert eliminations(css, c, c, "bound", 3, 3) == 0  # the nesting check only
    assert eliminations(dual_hermitian, c) == 1  # dual_euclidean's recanonicalization
    # the flat dual and the x - 1 slot's dual (a dual-mode pair maps to
    # itself), then the cross-check's assemble_qc: its dual-mode C'' and the
    # trace rows
    assert eliminations(qc_dual, ex41) == 4
    calls.clear()
    with pytest.raises(NotNested):
        css(line, line)
    assert not calls
    # Each materialized level (u = 1, 2) eliminates twice inside assemble_qc:
    # the dual-mode C'' = dual_euclidean(C') of its g* slot, and the trace
    # rows in code_from_rows.  The hypothesis and level flags, the level-2
    # copies, the dimension count and the given C'' distances eliminate nothing.
    for name, plan in plans.items():
        assert eliminations(build_family, plan) == 4, name
