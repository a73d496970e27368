import pytest

from qckit.errors import BudgetExceeded, EmptyAssignment, RepNotACosetMin
from qckit.gf import field_make
from qckit.gobound import associated_cyclic_family, cyclic_from_nonzeros, go_bound
from qckit.lincode import (
    code_from_rows,
    dual_euclidean,
    full_space,
    min_distance,
    subspace_leq,
    zero_code,
)
from qckit.qc import (
    ConstituentAssignment,
    PairAssignment,
    SelfrecAssignment,
    assemble_qc,
    decompose_ring,
)
from qckit.reproduce import load_example

F4 = field_make(2, 2)


def test_cyclic_from_nonzeros_examples():
    c = cyclic_from_nonzeros(F4, 7, [0])
    assert c.params() == (7, 1) and min_distance(c).d_exact == 7
    c1 = cyclic_from_nonzeros(F4, 7, [3])
    assert c1.k == 3 and min_distance(c1).d_exact == 4
    cfull = cyclic_from_nonzeros(F4, 7, [0, 1, 3])
    assert cfull.k == 7 and min_distance(cfull).d_exact == 1
    with pytest.raises(RepNotACosetMin):
        cyclic_from_nonzeros(F4, 7, [2])  # 2 is not its coset's minimum
    with pytest.raises(RepNotACosetMin):
        cyclic_from_nonzeros(F4, 7, [0, 0])


def test_go_bound_reference_values():
    rep = go_bound(*load_example("example41"))
    assert [c.distance.value for c in rep.chain] == [3, 2, 1]
    assert rep.d_go == 7 and rep.exact_mode
    # Jensen: prefixes min(3*4, 2*2, 1*1) = 1, suffixes min(3*1, 2*3, 1*7) = 3
    assert rep.d_sound == 3
    # the displayed associated-cyclic-code table
    want = {
        (1,): ((1, 1, 1, 0, 1), 4),
        (2,): ((1, 0, 1, 1, 1), 4),
        (3,): ((1, 1, 1, 1, 1, 1, 1), 7),
        (1, 2): ((1, 1), 2),
        (1, 3): ((1, 0, 1, 1), 3),
        (2, 3): ((1, 1, 0, 1), 3),
        (1, 2, 3): ((1,), 1),
    }
    got = {k: (v.gen_poly.coeffs, v.distance) for k, v in rep.d_table.items()}
    assert got == want
    # suffix values per the telescoped formula (the printed variant's final
    # component is 8; the formula's initial-segment sets give 7 -- see the
    # README section "Reference-material defects found by the suite")
    assert rep.r_values == {(3,): 7, (2, 3): 7, (1, 2, 3): 7}


def test_go_bound_example42_value():
    rep = go_bound(*load_example("example42"))
    assert [c.distance.value for c in rep.chain] == [6, 4, 2]
    assert rep.d_go == 14
    # Jensen: prefixes min(6*4, 4*2, 2*1) = 2, suffixes min(6*1, 4*3, 2*7) = 6
    assert rep.d_sound == 6


def test_go_bound_single_constituent_rep0():
    dec = decompose_ring(F4, 7, 3)
    F64 = dec.pair_slots[0][0].cfield
    cs = code_from_rows(F4, 3, [(1, 1, 1)])
    asn = ConstituentAssignment(
        (PairAssignment(zero_code(F64, 3), zero_code(F64, 3)),),
        (SelfrecAssignment(cs),))
    rep = go_bound(dec, asn)
    assert rep.d_go == 7 * 3  # m * d(C_s): the lone D code is the repetition code
    assert rep.d_sound == 21
    qc = assemble_qc(dec, asn)
    assert min_distance(qc.lin).d_exact == 21


def test_formula_unsoundness_regression():
    """Frozen counterexample: the telescoped formula is NOT a lower bound.

    Constituents (0, dual of the repetition line, full F_4^3) on the m = 7
    decomposition: formula value 7, true exact distance 6.  Kept as a
    regression so the behavior is documented, not silently absorbed; see the
    README section "Reference-material defects found by the suite".  The
    sound bound is exact here: chain (2, 1), min(2*3, 1*7) = 6.
    """
    dec = decompose_ring(F4, 7, 3)
    F64 = dec.pair_slots[0][0].cfield
    cd = dual_euclidean(code_from_rows(F64, 3, [(1, 1, 1)]))
    asn = ConstituentAssignment(
        (PairAssignment(zero_code(F64, 3), cd),),
        (SelfrecAssignment(full_space(F4, 3)),))
    rep = go_bound(dec, asn)
    qc = assemble_qc(dec, asn)
    exact = min_distance(qc.lin).d_exact
    assert rep.d_go == 7 and exact == 6  # formula exceeds the true distance
    assert rep.d_sound == 6


def test_example41_exact_distance_regression():
    """The full worked example: formula 7, sound bound 3, true exact distance 5
    (see the README section "Reference-material defects found by the suite")."""
    dec, asn = load_example("example41")
    rep = go_bound(dec, asn)
    qc = assemble_qc(dec, asn)
    assert rep.d_go == 7 and rep.d_sound == 3
    assert min_distance(qc.lin, budget=2**25).d_exact == 5


def test_d_table_nesting_monotonicity():
    dec, asn = load_example("example41")
    fam = associated_cyclic_family(dec, asn)
    codes = fam.codes
    dists = {k: min_distance(v).d_exact for k, v in codes.items()}
    for i in codes:
        for j in codes:
            if set(i) <= set(j):
                assert subspace_leq(codes[i], codes[j])
                assert dists[i] >= dists[j]


def test_go_bound_errors():
    dec = decompose_ring(F4, 7, 3)
    F64 = dec.pair_slots[0][0].cfield
    empty = ConstituentAssignment(
        (PairAssignment(zero_code(F64, 3), zero_code(F64, 3)),),
        (SelfrecAssignment(zero_code(F4, 3)),))
    with pytest.raises(EmptyAssignment):
        go_bound(dec, empty)
    # q^k = 64^2 exceeds both budgets: 10 codewords certify d = 2, one does not
    big = ConstituentAssignment(
        (PairAssignment(code_from_rows(F64, 3, [(1, 0, 1), (0, 1, 1)]), zero_code(F64, 3)),),
        (SelfrecAssignment(zero_code(F4, 3)),))
    assert go_bound(dec, big, distance_budget=10).chain[0].distance.value == 2
    with pytest.raises(BudgetExceeded):
        go_bound(dec, big, distance_budget=1)


def test_family_ledger_consistency():
    # formula value at the materialized level stays above the ledger claim
    rep = go_bound(*load_example("cor35"))
    assert rep.d_go >= 3  # the u = 1 ledger claim 3 * 11^0


def test_bch_fallback_lower_bound_mode():
    from qckit.gobound import _bch_bound, cyclic_code_from_gen

    assert _bch_bound(7, {0, 3, 5, 6}) == 4  # cyclic run 5,6,0
    assert _bch_bound(7, set()) == 1
    assert _bch_bound(7, set(range(7))) == 8  # whole space of zeros: sentinel
    assert _bch_bound(7, {1, 2, 3, 4}) == 5

    dec, asn = load_example("cor35")
    f3 = dec.q_field
    # 100 codewords certify every entry; 50 certify D_3 and D_1,2 only
    lo = go_bound(dec, asn, distance_budget=50)
    hi = go_bound(dec, asn, distance_budget=2**22)
    assert not lo.exact_mode and hi.exact_mode
    assert lo.d_go <= hi.d_go
    K, m = dec.common_field, 11
    engine_wins = 0
    for k, entry in lo.d_table.items():
        assert entry.distance <= hi.d_table[k].distance
        if entry.dim == m:
            assert entry.exact and entry.distance == 1
            continue
        rep = min_distance(cyclic_code_from_gen(f3, m, entry.gen_poly), 50, mode="bound")
        assert entry.exact == (rep.mode == "exact")
        if entry.exact:
            assert entry.distance == rep.d_exact
        else:  # the BCH bound on the generator's zeros, or the engine's lower bound
            zeros = {e for e in range(m) if entry.gen_poly.eval_in(K, dec.alpha_pow(e)) == 0}
            assert entry.distance == max(_bch_bound(m, zeros), rep.d_lower)
            engine_wins += rep.d_lower > _bch_bound(m, zeros)
    assert engine_wins == 2  # D_1 and D_2: 5 against BCH 4
