import dataclasses

import numpy as np
import pytest

from qckit import qc as qc_module
from qckit.errors import (
    ConstituentNotHSO,
    DualMismatch,
    FieldMismatch,
    LengthMismatch,
    NotNested,
    OrderingViolated,
    RankMismatch,
    SlotSNotESO,
    UnknownConstituentDistance,
)
from qckit import lincode, poly
from qckit.gf import field_make
from qckit.lincode import (
    LinearCode,
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
    is_shift_invariant,
    phi,
    phi_inv,
    qc_dual,
    qc_duality_class,
    r_hermitian_ip,
    ring_conj,
    sqrt_like_check,
)
from qckit.quantum import css
from qckit.reproduce import example_plan, load_example

from oracles import eliminated_duality_flags, scalar_rref

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)


@pytest.fixture(scope="module")
def dec47():
    return decompose_ring(F4, 7, 3)


@pytest.fixture(scope="module")
def ex41():
    return assemble_qc(*load_example("example41"))


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


@pytest.mark.parametrize("p,t,m", [(2, 2, 7), (3, 1, 11), (2, 1, 23)])
def test_slot_of_names_the_slot_of_each_exponents_coset(p, t, m):
    dec = decompose_ring(field_make(p, t), m, 1)
    table, K = dec.factors.cosets, dec.common_field
    for e in range(-m, 2 * m):
        coset = table.coset_of(e)
        assert dec.slot_of(e) is next(s for s in dec.slots if table.coset_of(s.exponent) == coset)
        assert dec.alpha_pow(e) == K.pow_(dec.alpha, e % m)


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
            shifted = phi(np.roll(vec, ell), m, ell)
            original = phi(vec, m, ell)
            for j in range(ell):
                assert np.array_equal(shifted[j], np.roll(original[j], 1))


def test_ring_conj_and_hermitian_ip():
    c = np.array([0, 1, 0], dtype=np.int64)  # x with m = 3
    assert ring_conj(F2, c).tolist() == [0, 0, 1]  # conj(x) = x^2
    x = np.zeros((2, 3), dtype=np.int64)
    assert not r_hermitian_ip(F2, x, x).any()


def test_prop22_orthogonality_correspondence():
    # <phi(a), phi(b)>_H = 0 iff all T^{k ell} shifts of a are orthogonal to b
    rng = np.random.default_rng(2)
    for (m, ell, fld) in ((3, 2, F2), (5, 2, F3), (3, 3, F3), (3, 3, F2)):
        for _ in range(60):
            a = rng.integers(0, fld.order, size=m * ell)
            b = rng.integers(0, fld.order, size=m * ell)
            ips = []
            for k in range(m):
                s = np.roll(a, k * ell)
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


@pytest.mark.parametrize("q,m,rank", [(3, 23, 46), (2, 41, 82)])
def test_full_assembly_over_large_constituent_fields(q, m, rank):
    # the constituent fields F_3^11 and F_2^20 lie above LOG_MAX_ORDER; the
    # embedding, its inverse and the trace act on the values that occur, so
    # assembly does not walk the whole field
    dec = decompose_ring(field_make(q, 1), m, 2)
    assert {s.cfield.order for s in dec.slots} == {q, q ** ((m - 1) // 2)}
    qc = assemble_qc(dec, assignment_all_full(dec))
    assert qc.k == rank and is_shift_invariant(qc)


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
    qc = assemble_qc(*load_example("example39"))
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
    assert is_galois_closed(qz.lin, 2)


def _cor35_plan(u_max=3, materialize_max=60):
    return example_plan("cor35", "ESO", u_max, materialize_max)


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
    levels = build_family(example_plan("example43", "EDC", u_max=3, materialize_max=24))
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


def test_family_needs_an_exact_x_minus_1_distance():
    # a given x - 1 distance that is only a lower bound cannot anchor the floor
    plan = _cor35_plan()
    loose = dataclasses.replace(plan.base.selfrec[-1], distance=DistanceInfo(3, False, "bound"))
    base = ConstituentAssignment(plan.base.pairs, (loose,))
    with pytest.raises(UnknownConstituentDistance):
        build_family(dataclasses.replace(plan, base=base))


def test_validate_rejects_wrong_fields_and_counts(dec47):
    F64 = dec47.pair_slots[0][0].cfield
    pair, sr = PairAssignment(full_space(F64, 3)), SelfrecAssignment(full_space(F4, 3))
    ConstituentAssignment((pair,), (sr,)).validate(dec47)
    bad = [
        ((PairAssignment(full_space(F4, 3)),), (sr,), "slot g1: code over"),  # C'
        ((PairAssignment(full_space(F64, 3), full_space(F4, 3)),), (sr,), "slot g1: code over"),  # C''
        ((pair,), (SelfrecAssignment(full_space(F64, 3)),), "slot f1: code over"),
        ((pair, pair), (sr,), "pair assignment count"),
        ((pair,), (), "self-reciprocal assignment count"),
    ]
    for pairs, selfrec, message in bad:
        with pytest.raises(FieldMismatch, match=message):
            ConstituentAssignment(pairs, selfrec).validate(dec47)


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
        so, dc = flags.eso, flags.edc  # the products run when a flag is read
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert so and not dc
    assert peak < 32 * 2**20, f"duality_class peaked at {peak / 2**20:.1f} MB"


def test_family_level2_materialization_edc():
    levels = build_family(example_plan("example43", "EDC", u_max=2, materialize_max=147))
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


def test_m_equals_one_family():
    # with m = 1 every level is the x - 1 constituent again: the ledger's
    # dimension counts 1 + m + ... + m^(u-1) = u copies of the pair slots
    cs = code_from_rows(F2, 2, [(1, 1)])
    asn = ConstituentAssignment((), (SelfrecAssignment(cs),))
    levels = build_family(FamilyPlan(F2, 1, 2, asn, u_max=3, kind="ESO"))
    assert [lv.params() for lv in levels] == [(2, 1, 2)] * 3
    assert all(lv.qc.lin == cs and lv.rank_checked and lv.duality_checked for lv in levels)


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
    """The cor35, example43 and example39 families with level u = 2 materialized."""
    return {
        "cor35": example_plan("cor35", "ESO", u_max=2, materialize_max=605),
        "example43": example_plan("example43", "EDC", u_max=2, materialize_max=147),
        "example39": example_plan("example39", "ESD", u_max=2, materialize_max=726),
    }


def _example_qc_codes():
    """The five worked examples' QC codes (level 1 of the three families)."""
    return {name: assemble_qc(*load_example(name))
            for name in ("example41", "example42", "cor35", "example43", "example39")}


def test_qc_duality_flags_match_elimination_oracle():
    held = set()
    for name, qc in _example_qc_codes().items():
        flags = duality_class(qc.lin).to_json()
        assert flags == eliminated_duality_flags(qc.field, qc.lin.gen, qc.n), name
        held.update(flag for flag, value in flags.items() if value)
    assert {"ESO", "EDC", "ESD"} <= held


def test_family_duality_checks_match_elimination_oracle():
    # each materialized level's duality_checked is the oracle's flag for the
    # family kind.  The scalar oracle takes 3 s at example43's level 2
    # (n = 147) and 38 s at cor35's (n = 605), so levels materialize up to
    # n = 147: all of example43's, level 1 of the other two.
    checked = []
    for name, plan in family_plans().items():
        plan = dataclasses.replace(plan, materialize_max=min(plan.materialize_max, 147))
        for lv in build_family(plan):
            if lv.qc is not None:
                oracle = eliminated_duality_flags(plan.q_field, lv.qc.lin.gen, lv.n)
                assert lv.duality_checked == oracle[plan.kind], (name, lv.u)
                checked.append((name, lv.u))
    assert checked == [("cor35", 1), ("example43", 1), ("example43", 2), ("example39", 1)]


def test_shift_invariance_matches_rolled_elimination():
    rng = np.random.default_rng(41)
    codes = list(_example_qc_codes().values())
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
    assert eliminations(dual_hermitian, c) == 1  # dual_euclidean's recanonicalization
    # the flat dual and the x - 1 slot's dual, then the cross-check's
    # assemble_qc: its trace rows.  A dual-mode pair maps to itself and keeps
    # the C'' that assembling ex41 eliminated
    assert eliminations(qc_dual, ex41) == 3
    calls.clear()
    with pytest.raises(NotNested):
        css(line, line)
    assert not calls
    # A fresh plan eliminates 4 times: the base's dual-mode C'' =
    # dual_euclidean(C'), which the ordering check builds and level 1
    # assembles from; level 1's trace rows in code_from_rows; the images of
    # the whole space at the g* slot, V; and level 2's rows outside the copy
    # differences, which are in RREF already (qc._LevelOneImages).  The
    # hypothesis and level flags, the level-2 copies and the dimension count
    # eliminate nothing, and level 2 builds no C'': no dual_euclidean runs
    # for it.  So no elimination has more than k_2 - (m - 1) dim V rows:
    # 302 - 10 * 25, 74 - 6 * 9 and 363 - 10 * 30.  A reused plan keeps its
    # base's C''.
    duals = []
    for module in (lincode, qc_module):
        monkeypatch.setattr(module, "dual_euclidean",
                            lambda c, real=dual_euclidean: duals.append(c) or real(c))
    level2 = {"cor35": (52, 355), "example43": (20, 93), "example39": (63, 426)}
    for name, plan in plans.items():
        duals.clear()
        assert eliminations(build_family, plan) == 4, name
        assert len(duals) == 1, name  # the base's C''
        assert max(rows.shape[0] for _, rows in calls) <= level2[name][0], name
        assert calls[3][1].shape == level2[name], name
        duals.clear()
        assert eliminations(build_family, plan) == 3, name
        assert not duals, name


def test_build_family_factors_once(monkeypatch):
    # from an empty factor cache, a family factors x^m - 1 once, and every
    # materialized level's decomposition shares that factorization
    calls = []
    factor = poly._factor
    monkeypatch.setattr(poly, "_factor", lambda *args: calls.append(args) or factor(*args))
    for name, plan in family_plans().items():
        monkeypatch.setattr(poly, "_FACTOR_CACHE", {})
        calls.clear()
        levels = build_family(plan)
        assert len(calls) == 1, name
        decomps = [lv.qc.decomp for lv in levels if lv.qc is not None]
        assert len(decomps) == 2 and decomps[1].factors is decomps[0].factors, name


def _family_levels_match_assembly(plan) -> list:
    """The u of each materialized level of plan, after checking each against
    assemble_qc of its own decomposition and provenance."""
    checked = []
    for lv in build_family(plan):
        if lv.qc is not None:
            decomp = decompose_ring(plan.q_field, plan.m, lv.qc.ell)
            assert lv.qc.lin == assemble_qc(decomp, lv.qc.assignment).lin, lv.u
            assert lv.rank_checked and lv.duality_checked, lv.u
            checked.append(lv.u)
    return checked


def test_family_levels_match_assemble_qc():
    # every level with n <= 1100 of the shipped recipes, written down from
    # level 1's images, is the code assemble_qc spans
    plans = {name: dataclasses.replace(plan, u_max=3, materialize_max=1100)
             for name, plan in family_plans().items()}
    assert {name: _family_levels_match_assembly(plan) for name, plan in plans.items()} == \
        {"cor35": [1, 2], "example43": [1, 2, 3], "example39": [1, 2]}


def test_family_levels_match_assemble_qc_on_other_slot_shapes():
    # no pair slot: m = 2 over F_3, where x + 1 is an exceptional slot; there
    # are no copy differences and every level is eliminated whole
    dec = decompose_ring(F3, 2, 4)
    eso = code_from_rows(F3, 4, [(1, 1, 1, 0)])
    plan = FamilyPlan(F3, 2, 4, ConstituentAssignment((), (SelfrecAssignment(eso), SelfrecAssignment(eso))),
                      u_max=4, kind="ESO", materialize_max=64)
    assert not dec.pair_slots and _family_levels_match_assembly(plan) == [1, 2, 3, 4]
    # two pair slots: m = 13 over F_3 has two pairs of cubic factors, so V
    # holds the images of both g* slots
    dec = decompose_ring(F3, 13, 4)
    assert len(dec.pair_slots) == 2
    pairs = tuple(PairAssignment(grs_code(sg.cfield, [0, 1, 2, 3], [1] * 4, 2)) for sg, _ in dec.pair_slots)
    plan = FamilyPlan(F3, 13, 4, ConstituentAssignment(pairs, (SelfrecAssignment(eso),)),
                      u_max=2, kind="ESO", materialize_max=676)
    assert _family_levels_match_assembly(plan) == [1, 2]
    # an ESO family with a Hermitian slot before x - 1: m = 3 over F_2, whose
    # x^2 + x + 1 slot holds an HSO code over F_4, tiled up to 27 copies
    dec = decompose_ring(F2, 3, 2)
    slot = dec.selfrec_slots[0]
    assert slot.degree == 2 and not slot.exceptional
    hso = code_from_rows(slot.cfield, 2, [(1, 1)])
    assert duality_class(hso).hso
    line = code_from_rows(F2, 2, [(1, 1)])
    plan = FamilyPlan(F2, 3, 2, ConstituentAssignment((), (SelfrecAssignment(hso), SelfrecAssignment(line))),
                      u_max=4, kind="ESO", materialize_max=162)
    assert _family_levels_match_assembly(plan) == [1, 2, 3, 4]


def test_family_level_rank_check_raises(monkeypatch):
    # a level written down from level 1's images keeps assemble_qc's rank
    # check: one that lost a row raises
    real = qc_module._family_level

    def short(*args):
        lin = real(*args)
        return LinearCode(lin.field, lin.n, lin.gen[:-1], lin.pivots[:-1])

    monkeypatch.setattr(qc_module, "_family_level", short)
    with pytest.raises(RankMismatch):
        build_family(family_plans()["example43"])


def test_pair_assignment_eliminates_its_dual_once(monkeypatch):
    # a dual-mode pair keeps its C'': repeated cdouble_code(), entries and
    # go_bound calls on one assignment eliminate the dual once
    from qckit.gobound import go_bound

    decomp, asn = load_example("example41")
    calls = []
    monkeypatch.setattr(qc_module, "dual_euclidean", lambda c: calls.append(c) or dual_euclidean(c))
    pa = asn.pairs[0]
    assert pa.dual_mode
    cdouble = pa.cdouble_code()
    assert cdouble == dual_euclidean(pa.cprime)
    for _ in range(3):
        assert pa.cdouble_code() is cdouble
        assert asn.entries(decomp)[1][1] is cdouble
        go_bound(decomp, asn)
    assert len(calls) == 1
