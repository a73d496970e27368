import numpy as np
import pytest

from qckit.errors import (
    BudgetTooSmallForExact,
    DimensionMismatch,
    EnumerationIncomplete,
    LengthMismatch,
    MixedFields,
    OrderNotSquare,
    RepeatedEvaluationPoint,
    ZeroMultiplier,
)
from qckit.gf import LOG_MAX_ORDER, field_make
from qckit.lincode import (
    DistanceReport,
    LinearCode,
    code_from_rows,
    code_power_q,
    concat_copies,
    dual_euclidean,
    dual_hermitian,
    duality_class,
    full_space,
    galois_closure,
    grs_code,
    is_galois_closed,
    juxtapose,
    min_distance,
    min_weight_outside,
    subspace_leq,
    zero_code,
    _gram,
    _rref,
)

from oracles import brute_dual_vectors, naive_min_distance, scalar_gram, scalar_rref

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F9 = field_make(3, 2)


def eso_523():
    return code_from_rows(F3, 5, [(1, 1, 1, 0, 0), (1, 2, 0, 1, 0)])


def esd_634():
    return code_from_rows(F5, 6, [(1, 0, 0, 2, 2, 4), (0, 1, 0, 2, 4, 2), (0, 0, 1, 4, 2, 2)])


def test_code_from_rows():
    c = eso_523()
    assert c.params() == (5, 2)
    assert code_from_rows(F3, 4, []).k == 0
    assert code_from_rows(F2, 3, np.eye(3, dtype=int)).k == 3
    with pytest.raises(LengthMismatch):
        code_from_rows(F3, 5, [(1, 1)])
    with pytest.raises(MixedFields):
        code_from_rows(F3, 2, [(1, 7)])
    # integer arrays take one vectorized check and raise the same errors
    with pytest.raises(LengthMismatch):
        code_from_rows(F3, 5, np.ones((2, 4), dtype=np.int64))
    for bad in (-1, 3):
        with pytest.raises(MixedFields):
            code_from_rows(F3, 2, np.array([[1, 0], [bad, 1]]))
    with pytest.raises(MixedFields):
        code_from_rows(F3, 2, [(1, 2**70)])
    # dependent and duplicate rows collapse
    assert code_from_rows(F3, 3, [(1, 1, 0), (2, 2, 0), (1, 1, 0)]).k == 1


def test_dual_euclidean():
    c = eso_523()
    d = dual_euclidean(c)
    assert d.k == 3 and subspace_leq(c, d)
    assert dual_euclidean(d) == c
    assert dual_euclidean(zero_code(F3, 4)) == full_space(F3, 4)
    rng = np.random.default_rng(0)
    for fld in (F2, F3, F4):
        rows = rng.integers(0, fld.order, size=(3, 6))
        c = code_from_rows(fld, 6, rows)
        d = dual_euclidean(c)
        assert c.k + d.k == 6
        assert dual_euclidean(d) == c
        assert not _gram(fld, c.gen, d.gen).any()
    # brute-force oracle on a tiny case
    c = code_from_rows(F3, 4, [(1, 2, 0, 1)])
    vecs = sorted(brute_dual_vectors(c))
    d = dual_euclidean(c)
    assert len(vecs) == 3**d.k
    for row in d.gen:
        assert tuple(int(v) for v in row) in vecs


def test_dual_hermitian():
    c = code_from_rows(F4, 2, [(1, 1)])
    assert dual_hermitian(c) == c  # 1*1^2 + 1*1^2 = 0
    assert dual_hermitian(zero_code(F4, 3)) == full_space(F4, 3)
    rng = np.random.default_rng(4)
    for _ in range(15):
        rows = rng.integers(0, 9, size=(2, 5))
        c = code_from_rows(F9, 5, rows)
        assert dual_hermitian(c) == dual_euclidean(code_power_q(c, 3))
    with pytest.raises(OrderNotSquare):
        dual_hermitian(eso_523())


def test_min_distance_examples():
    assert min_distance(code_from_rows(F2, 3, [(1, 1, 1)])).d_exact == 3
    assert min_distance(eso_523()).d_exact == 3
    assert min_distance(esd_634()).d_exact == 4
    z = min_distance(zero_code(F3, 5))
    assert z.zero_code and z.d_exact == 6  # sentinel n + 1


def test_min_distance_budget_handling():
    c = code_from_rows(F4, 8, np.eye(8, dtype=int))
    with pytest.raises(BudgetTooSmallForExact):
        min_distance(c, budget=100, mode="exact")
    rep = min_distance(c, budget=100, mode="exact", fallback=True)
    assert rep.mode == "lower-upper" and rep.d_upper >= 1
    rep2 = min_distance(c, budget=100, mode="auto")
    assert rep2.mode == "lower-upper" and rep2.enumerated >= 100


def test_min_distance_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for fld in (F2, F3, F4, F5, F9):
        for _ in range(6):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(1, min(n, 5) + 1))
            c = code_from_rows(fld, n, rng.integers(0, fld.order, size=(k, n)))
            if c.k == 0 or fld.order**c.k > 10**5:
                continue
            assert min_distance(c).d_exact == naive_min_distance(c)


def test_incomplete_enumeration_raises(monkeypatch):
    from qckit import _kernels

    monkeypatch.setattr(_kernels, "gray_min_weight", lambda *args: (1, 1, False))
    c = code_from_rows(F2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    with pytest.raises(EnumerationIncomplete):
        min_distance(c, mode="exact")
    with pytest.raises(EnumerationIncomplete):
        min_weight_outside(c, c)


def test_min_distance_large_field_scalar_path():
    f3125 = field_make(5, 5)
    c = grs_code(f3125, [0, 1, 2, 3], [1, 1, 1, 1], 1)
    assert min_distance(c).d_exact == 4


def test_duality_class_examples():
    fl = duality_class(eso_523())
    assert fl.eso and not fl.esd and not fl.edc
    assert fl.hso is None  # order 3 is not a square
    assert duality_class(esd_634()).esd
    fl_full = duality_class(full_space(F2, 8))
    assert fl_full.edc and not fl_full.eso


def test_grs():
    g = grs_code(F5, [0, 1, 2, 3], [1, 1, 1, 1], 2)
    assert naive_min_distance(g) == 3  # [4,2,3] MDS
    assert grs_code(F5, [0, 1, 2], [1, 1, 1], 3) == full_space(F5, 3)
    with pytest.raises(RepeatedEvaluationPoint):
        grs_code(F5, [0, 0, 1], [1, 1, 1], 2)
    with pytest.raises(ZeroMultiplier):
        grs_code(F5, [0, 1, 2], [1, 0, 1], 2)
    rng = np.random.default_rng(8)
    for fld in (F5, field_make(7, 1), F9, field_make(2, 3)):
        for _ in range(4):
            n = int(rng.integers(2, min(fld.order, 8) + 1))
            k = int(rng.integers(1, n + 1))
            if fld.order**k > 10**6:
                continue
            pts = list(rng.permutation(fld.order)[:n])
            vs = [int(v) for v in rng.integers(1, fld.order, size=n)]
            c = grs_code(fld, pts, vs, k)
            assert c.k == k
            assert min_distance(c, budget=2**21).d_exact == n - k + 1  # MDS


def test_concat_copies_and_juxtapose():
    rep = code_from_rows(F2, 3, [(1, 1, 1)])
    c2 = concat_copies(rep, 2)
    assert c2.params() == (6, 1) and min_distance(c2).d_exact == 6
    c = eso_523()
    c11 = concat_copies(c, 11)
    assert c11.params() == (55, 2)
    assert not _gram(F3, c11.gen, c11.gen).any()  # still self-orthogonal
    assert min_distance(c11).d_exact == 33
    j = juxtapose(c, c)
    assert j.k == c.k
    with pytest.raises(DimensionMismatch):
        juxtapose(c, dual_euclidean(c))


def test_galois_closure():
    rep = code_from_rows(F4, 3, [(1, 1, 1)])
    assert is_galois_closed(rep, 2)
    line = code_from_rows(F4, 2, [(1, 2)])
    assert not is_galois_closed(line, 2)
    clo = galois_closure(line, 2)
    assert clo.k == 2  # span{(1,w),(1,w^2)} is the full plane
    rng = np.random.default_rng(5)
    for _ in range(15):
        c = code_from_rows(F4, 5, rng.integers(0, 4, size=(2, 5)))
        assert is_galois_closed(dual_euclidean(galois_closure(c, 2)), 2)


def test_subspace_leq():
    c = eso_523()
    assert subspace_leq(zero_code(F3, 5), c)
    assert subspace_leq(c, c)
    assert subspace_leq(c, dual_euclidean(c))
    assert not subspace_leq(full_space(F3, 5), c)
    with pytest.raises(LengthMismatch):
        subspace_leq(c, full_space(F3, 4))


def test_hso_frobenius_identity():
    # HSO iff C^r is inside the Euclidean dual
    rng = np.random.default_rng(6)
    for fld, r in ((F4, 2), (F9, 3)):
        for _ in range(25):
            c = code_from_rows(fld, 4, rng.integers(0, fld.order, size=(2, 4)))
            hso = duality_class(c).hso
            assert hso == subspace_leq(code_power_q(c, r), dual_euclidean(c))


def test_one_dim_galois_closed_classification():
    # a closed line <v> has v_i = 0 or v_i^(q-1) all equal; exhaustive scan
    for fld, r, ell in ((F4, 2, 4), (F9, 3, 3)):
        q = r
        for idx in range(fld.order**ell):
            rem = idx
            v = []
            for _ in range(ell):
                v.append(rem % fld.order)
                rem //= fld.order
            if not any(v):
                continue
            c = code_from_rows(fld, ell, [v])
            closed = is_galois_closed(c, r)
            powers = {fld.pow_(x, q - 1) for x in v if x}
            assert closed == (len(powers) == 1), (fld, v)


def test_galois_closed_direct_sum_decomposition():
    # closed subspaces decompose into closed lines (checked over all
    # subspaces of F_4^3: the lines and the duals of lines)
    ell = 3
    lines = []
    seen = set()
    for idx in range(1, 4**ell):
        rem = idx
        v = []
        for _ in range(ell):
            v.append(rem % 4)
            rem //= 4
        c = code_from_rows(F4, ell, [v])
        if c not in seen:
            seen.add(c)
            lines.append(c)
    subspaces = [zero_code(F4, ell), full_space(F4, ell)] + lines + \
        [dual_euclidean(c) for c in lines]
    for s in subspaces:
        closed = is_galois_closed(s, 2)
        closed_lines_inside = [ln for ln in lines if subspace_leq(ln, s) and is_galois_closed(ln, 2)]
        if closed_lines_inside:
            span = code_from_rows(F4, ell, np.vstack([ln.gen for ln in closed_lines_inside]))
        else:
            span = zero_code(F4, ell)
        assert closed == (span == s) or s.k == 0


def test_min_distance_bound_mode_target_early_exit():
    rng = np.random.default_rng(31)
    c = code_from_rows(F2, 40, rng.integers(0, 2, size=(18, 40)))
    rep = min_distance(c, budget=500, mode="bound")
    assert rep.mode == "lower-upper"
    assert rep.enumerated == 500 and rep.d_upper is not None


# prime and extension fields with log arrays, then one prime and one
# extension field above LOG_MAX_ORDER (entrywise multiplication)
ORACLE_FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 6), (5, 5), (65537, 1), (2, 17))
# (rows, columns); 12 x 20 and 24 x 40 span several elimination panels
ORACLE_SHAPES = ((0, 6), (1, 5), (4, 9), (7, 7), (9, 5), (12, 20), (24, 40))


def _degenerate_matrix(fld, rng, k, n):
    """Random k x n matrix with an all-zero column, a zero row and a row that
    is a combination of two others, where the shape allows."""
    mat = rng.integers(0, fld.order, size=(k, n))
    if n > 2:
        mat[:, 2] = 0
    if k > 3:
        mat[1] = 0
        c = int(rng.integers(1, fld.order))
        mat[3] = [fld.add(int(a), fld.mul(c, int(b))) for a, b in zip(mat[0], mat[2])]
    return mat


def _oracle_leq(c1, c2):
    if c1.k == 0:
        return True
    return len(scalar_rref(c1.field, np.vstack([c2.gen, c1.gen]))[1]) == c2.k


@pytest.mark.parametrize("p,t", ORACLE_FIELDS)
def test_array_linear_algebra_matches_scalar_oracle(p, t):
    fld = field_make(p, t)
    rng = np.random.default_rng(100 * p + t)
    # entrywise multiplication above LOG_MAX_ORDER is slow: skip the largest shape
    for k, n in ORACLE_SHAPES if fld.order <= LOG_MAX_ORDER else ORACLE_SHAPES[:-1]:
        mat = _degenerate_matrix(fld, rng, k, n)
        gen, piv = _rref(fld, mat)
        assert (gen.tolist(), piv) == scalar_rref(fld, mat), (k, n)
        other = rng.integers(0, fld.order, size=(3, n))
        assert _gram(fld, mat, other).tolist() == scalar_gram(fld, mat, other)
        c = LinearCode(fld, n, gen, piv)
        d = dual_euclidean(c)
        assert d.k == n - c.k and (d.gen.tolist(), d.pivots) == scalar_rref(fld, d.gen)
        assert all(v == 0 for row in scalar_gram(fld, c.gen, d.gen) for v in row)
        half = LinearCode(fld, n, *_rref(fld, mat[: k // 2]))
        rand = LinearCode(fld, n, *_rref(fld, other))
        for c1, c2 in ((half, c), (c, half), (rand, c), (c, rand), (d, c), (c, d), (c, full_space(fld, n))):
            assert subspace_leq(c1, c2) == _oracle_leq(c1, c2), (k, n)
