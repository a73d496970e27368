import numpy as np
import pytest

from qckit.errors import BudgetExceeded, NotDualContaining, NotNested, PreconditionViolated
from qckit.gf import field_make
from qckit.lincode import (
    code_from_rows,
    dual_euclidean,
    duality_class,
    full_space,
    min_distance,
    min_weight_outside,
)
from qckit.quantum import (
    QuantumParams,
    css,
    from_dual_containing,
    singleton_audit,
    transform,
    transform_chain,
)


F2 = field_make(2, 1)
F4 = field_make(2, 2)


def _edc_2144():
    # the extended even-weight-ish EDC code [4,3,2] over F_2
    return code_from_rows(F2, 4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])


def test_css_trivial():
    full = full_space(F2, 3)
    q = css(full, full)
    assert (q.n, q.k, q.d_lower) == (3, 3, 1)


def test_css_not_nested():
    c1 = code_from_rows(F2, 4, [(1, 1, 1, 1)])
    with pytest.raises(NotNested):
        css(c1, c1)


def test_css_exact_vs_oracle():
    c = _edc_2144()
    assert duality_class(c).edc
    q = css(c, c, mode="exact")
    # oracle: min weight over codewords of c not in its dual
    dual = dual_euclidean(c)
    best = None
    for msg in range(1, 2**c.k):
        rem, word = msg, np.zeros(4, dtype=np.int64)
        for i in range(c.k):
            if rem & 1:
                word = (word + c.gen[i]) % 2
            rem >>= 1
        in_dual = all((word @ c.gen[i]) % 2 == 0 for i in range(c.k))
        if not in_dual:
            w = int(word.sum())
            best = w if best is None else min(best, w)
    assert q.d_exact == best == 2


def test_from_dual_containing():
    c = _edc_2144()
    q = from_dual_containing(c)
    assert (q.n, q.k, q.d_lower) == (4, 2, 2)
    full = full_space(F2, 3)
    q2 = from_dual_containing(full)
    assert (q2.n, q2.k, q2.d_lower) == (3, 3, 1)
    with pytest.raises(NotDualContaining):
        from_dual_containing(code_from_rows(F2, 4, [(1, 1, 1, 1)]))


def _hamming_844():
    # the self-dual extended Hamming [8,4,4]_2 code
    return code_from_rows(F2, 8, [(1, 0, 0, 0, 0, 1, 1, 1), (0, 1, 0, 0, 1, 0, 1, 1),
                                  (0, 0, 1, 0, 1, 1, 0, 1), (0, 0, 0, 1, 1, 1, 1, 0)])


def test_css_bound_mode_uses_certified_distance_over_budget():
    # q^k = 16 exceeds the budget, but the engine certifies d = 4 after 8 codewords
    c = _hamming_844()
    assert duality_class(c).esd
    rep = min_distance(c, budget=10)
    assert rep.mode == "exact" and rep.d_exact == rep.d_lower == rep.d_upper == 4
    q = css(c, c, budget=10)
    assert (q.n, q.k, q.d_lower, q.purity) == (8, 0, 4, 4)
    assert from_dual_containing(c, budget=10).d_lower == 4
    # a budget too small to certify keeps the engine's certified lower bound
    low = min_distance(c, budget=2, mode="bound")
    assert low.d_lower < 4 and css(c, c, budget=2).d_lower == max(1, low.d_lower)


def test_min_weight_outside_certifies_over_budget():
    # q^k = 16 exceeds the budget; outside {0} = full_space^perp is every
    # nonzero codeword, and the engine certifies weight 4 after 8 of them
    c = _hamming_844()
    assert min_weight_outside(c, full_space(F2, 8), budget=10) == (4, 8)
    with pytest.raises(BudgetExceeded):
        min_weight_outside(c, full_space(F2, 8), budget=2)


def test_from_dual_containing_certifies_from_dual_lower_bound(monkeypatch):
    from qckit import quantum

    # the Hamming [7,4,3]_2 code contains its dual, the simplex [7,3,4]_2 code;
    # 8 codewords certify d(C) = 3 and 6 certify d(C^perp) = 4 > 3, so the
    # stabilizer distance is exactly 3
    c = code_from_rows(F2, 7, [(1, 0, 0, 0, 1, 1, 0), (0, 1, 0, 0, 1, 0, 1),
                               (0, 0, 1, 0, 0, 1, 1), (0, 0, 0, 1, 1, 1, 1)])
    dual = dual_euclidean(c)
    assert min_distance(c, budget=8).enumerated == 8
    assert min_distance(dual, budget=8).enumerated == 6
    q = from_dual_containing(c, budget=8)
    assert (q.n, q.k, q.d_lower, q.d_exact, q.purity) == (7, 1, 3, 3, 3)
    # 7 codewords certify only d(C) >= 2: bound mode keeps that lower bound
    # and claims nothing
    assert min_distance(c, budget=7, mode="bound").d_lower == 2
    q = from_dual_containing(c, budget=7)
    assert (q.d_lower, q.d_exact, q.purity) == (2, None, 2)
    # a dual run cut at 3 codewords certifies only d(C^perp) >= 3 and claims
    # nothing
    assert min_distance(dual, budget=3, mode="bound").d_lower == 3
    monkeypatch.setattr(quantum, "min_distance", lambda code, budget, **kwargs: min_distance(
        code, 3 if code == dual else budget, **kwargs))
    q = from_dual_containing(c, budget=8)
    assert (q.d_lower, q.d_exact, q.purity) == (3, None, 3)


def test_css_of_one_code_computes_its_distance_once(monkeypatch):
    from qckit import quantum

    calls = []

    def counted(code, *args, **kwargs):
        calls.append(code)
        return min_distance(code, *args, **kwargs)

    monkeypatch.setattr(quantum, "min_distance", counted)
    c = _hamming_844()
    q = css(c, c, budget=10)
    assert len(calls) == 1 and (q.n, q.k, q.d_lower, q.purity) == (8, 0, 4, 4)
    # C's run, then its dual's, since d(C) is certified; C is self-dual, so
    # d(C^perp) = d(C) and nothing is claimed
    calls.clear()
    q = from_dual_containing(c, budget=10)
    assert calls == [c, dual_euclidean(c)]
    assert (q.n, q.k, q.d_lower, q.d_exact, q.purity) == (8, 0, 4, None, 4)
    # a second code is its own run
    calls.clear()
    assert css(full_space(F2, 4), _edc_2144()).d_lower == 1 and len(calls) == 2
    # exact mode enumerates one difference set for one code, and both for two
    outside = []

    def counted_outside(c1, c2, *args):
        outside.append((c1, c2))
        return min_weight_outside(c1, c2, *args)

    monkeypatch.setattr(quantum, "min_weight_outside", counted_outside)
    e = _edc_2144()
    assert css(e, e, mode="exact").d_exact == 2 and outside == [(e, e)]
    outside.clear()
    calls.clear()
    assert from_dual_containing(e, mode="exact").d_exact == 2
    assert outside == [(e, e)] and calls == [e]
    outside.clear()
    full = full_space(F2, 4)
    assert css(full, e, mode="exact").d_exact == 1 and outside == [(full, e), (e, full)]


def test_css_agrees_with_dual_containing():
    for c in (_edc_2144(), full_space(F2, 5), full_space(F4, 4)):
        a = css(c, c)
        b = from_dual_containing(c)
        assert (a.n, a.k, a.d_lower) == (b.n, b.k, b.d_lower)


def test_transforms():
    base = QuantumParams(21, 3, 7, 4, purity=7)
    lengthened = transform(base, "lengthen")
    assert (lengthened.n, lengthened.k, lengthened.d_lower) == (22, 3, 7)
    assert lengthened.impure
    shortened = transform(base, "shorten")
    assert (shortened.n, shortened.k, shortened.d_lower) == (20, 4, 6)
    reduced = transform(base, "reduce")
    assert (reduced.n, reduced.k, reduced.d_lower) == (21, 2, 7)
    combined = transform(QuantumParams(2, 1, 1, 2), "combine", QuantumParams(3, 1, 1, 2))
    assert (combined.n, combined.k, combined.d_lower) == (5, 2, 1)


def test_transform_preconditions():
    base = QuantumParams(21, 3, 7, 4, purity=7)
    impure = transform(base, "lengthen")
    with pytest.raises(PreconditionViolated):
        transform(impure, "shorten")  # impure codes cannot be shortened
    unknown = QuantumParams(10, 2, 3, 2)  # purity unknown
    with pytest.raises(PreconditionViolated):
        transform(unknown, "shorten")
    with pytest.raises(PreconditionViolated):
        transform(QuantumParams(5, 0, 2, 2), "lengthen")
    with pytest.raises(PreconditionViolated):
        transform(base, "combine", QuantumParams(3, 1, 1, 2))  # alphabet mismatch


def test_transform_chain_replays_reference_tables():
    from qckit.reproduce import load_tables

    fx = load_tables()
    base41 = QuantumParams(21, 3, 7, 4, purity=7)
    got = []
    p = base41
    for _ in range(5):
        p = transform(p, "shorten")
        got.append([p.n, p.k, p.d_lower])
    assert got == fx["example41"]["shorten"]
    p = base41
    got = []
    for _ in range(5):
        p = transform(p, "lengthen")
        got.append([p.n, p.k, p.d_lower])
    assert got == fx["example41"]["lengthen"]
    base42 = QuantumParams(56, 4, 14, 2, purity=14)
    got = []
    p = base42
    for _ in range(5):
        p = transform(p, "shorten")
        got.append([p.n, p.k, p.d_lower])
    assert got == fx["example42"]["shorten"]
    p = transform_chain(base42, "lengthen,lengthen,lengthen,lengthen,lengthen")
    assert [p.n, p.k, p.d_lower] == fx["example42"]["lengthen"][-1]


def test_singleton_audit():
    assert singleton_audit(QuantumParams(21, 3, 7, 4)).slack == 6
    audit = singleton_audit(QuantumParams(5, 5, 1, 2))
    assert audit.quantum_mds and audit.ok
    assert singleton_audit(QuantumParams(56, 4, 14, 2)).slack == 26
    with pytest.raises(PreconditionViolated):
        QuantumParams(5, 2, 4, 2, d_exact=4)  # k + 2d > n + 2


def test_min_weight_outside_symmetry():
    c = _edc_2144()
    w, seen = min_weight_outside(c, c)
    assert w == 2 and 0 < seen <= 2**c.k - 1


def test_min_weight_outside_matches_oracle():
    import numpy as np
    from qckit.gf import field_make

    rng = np.random.default_rng(77)
    fields = [field_make(2, 1), field_make(3, 1), field_make(2, 2)]
    pairs = []
    for trial in range(18):
        fld = fields[trial % 3]
        n = int(rng.integers(4, 9))
        k1 = int(rng.integers(1, min(n, 4) + 1))
        k2 = int(rng.integers(0, min(n, 4) + 1))
        c1 = code_from_rows(fld, n, rng.integers(0, fld.order, size=(k1, n)))
        c2 = code_from_rows(fld, n, rng.integers(0, fld.order, size=(k2, n)))
        pairs.append((c1, c2))
    # c1 = c2, k2 = 0 and c2 = c1^perp (empty difference), each over F_2 and
    # F_5, and a dual-containing code with itself
    for fld in (field_make(2, 1), field_make(5, 1)):
        c = code_from_rows(fld, 9, rng.integers(0, fld.order, size=(3, 9)))
        pairs += [(c, c), (c, code_from_rows(fld, 9, [])), (c, dual_euclidean(c))]
    pairs.append((_edc_2144(), _edc_2144()))
    for c1, c2 in pairs:
        fld, n = c1.field, c1.n
        if c1.k == 0:
            continue
        got = min_weight_outside(c1, c2)
        # counting-order oracle with an explicit orthogonality test
        q = fld.order
        best = n + 1
        for msg in range(1, q**c1.k):
            rem, word = msg, [0] * n
            for i in range(c1.k):
                coef = rem % q
                rem //= q
                if coef:
                    word = [fld.add(w, fld.mul(coef, int(r)))
                            for w, r in zip(word, c1.gen[i])]
            in_perp = True
            for row in c2.gen:
                s = 0
                for w, r in zip(word, row):
                    s = fld.add(s, fld.mul(int(w), int(r)))
                if s != 0:
                    in_perp = False
                    break
            if not in_perp:
                best = min(best, sum(1 for w in word if w))
        assert got[0] == best, (c1, c2, got, best)
