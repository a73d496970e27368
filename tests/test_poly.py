import numpy as np
import pytest

from qckit import poly
from qckit.errors import (
    FactorProductMismatch,
    MinimalPolynomialMismatch,
    NotCoprime,
    ReciprocalMismatch,
    ZeroConstantTerm,
)
from qckit.gf import GF, field_make, is_prime
from qckit.poly import Poly, cyclotomic_cosets, factor_xm1, three_factor_scan

from oracles import trial_division_irreducible

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)


def test_poly_arithmetic():
    a = Poly.make(F2, (1, 1))
    b = Poly.make(F2, (1, 1, 0, 1))
    c = Poly.make(F2, (1, 0, 1, 1))
    assert a * b * c == Poly.make(F2, (1, 0, 0, 0, 0, 0, 0, 1))  # x^7 + 1


def test_poly_scale():
    f = Poly.make(F5, (1, 2, 3))  # 1 + 2x + 3x^2
    assert f.scale(2) == Poly.make(F5, (2, 4, 6 % 5))


def test_reciprocal():
    xm1 = Poly.make(F3, (2, 1))  # x - 1
    assert xm1.reciprocal() == xm1
    assert Poly.make(F2, (1, 1, 0, 1)).reciprocal() == Poly.make(F2, (1, 0, 1, 1))
    rng = np.random.default_rng(2)
    for _ in range(20):
        coeffs = [int(v) for v in rng.integers(0, 3, size=5)]
        coeffs[0] = max(1, coeffs[0])
        f = Poly.make(F3, coeffs)
        if f.degree < 1:
            continue
        assert f.reciprocal().reciprocal() == f.monic()
    with pytest.raises(ZeroConstantTerm):
        Poly.make(F2, (0, 1)).reciprocal()


def test_cyclotomic_cosets():
    assert cyclotomic_cosets(4, 7).cosets == ((0,), (1, 2, 4), (3, 5, 6))
    assert cyclotomic_cosets(2, 7).cosets == ((0,), (1, 2, 4), (3, 5, 6))
    assert cyclotomic_cosets(7, 1).cosets == ((0,),)
    with pytest.raises(NotCoprime):
        cyclotomic_cosets(2, 4)


def test_factor_xm1_reference_values():
    fs = factor_xm1(F4, 7)
    assert [(g.coeffs, gs.coeffs) for g, gs in fs.pairs] == [((1, 1, 0, 1), (1, 0, 1, 1))]
    assert [f.coeffs for f in fs.selfrec] == [(1, 1)]
    assert fs.delta == 1

    fs3 = factor_xm1(F3, 11)
    assert [(g.coeffs, gs.coeffs) for g, gs in fs3.pairs] == \
        [((2, 2, 1, 2, 0, 1), (2, 0, 1, 2, 1, 1))]
    assert [f.coeffs for f in fs3.selfrec] == [(2, 1)]

    fs5 = factor_xm1(F5, 11)
    assert [(g.coeffs, gs.coeffs) for g, gs in fs5.pairs] == \
        [((4, 1, 1, 4, 2, 1), (4, 3, 1, 4, 4, 1))]


def test_factor_xm1_structure_suite():
    # product identity, factor/coset counts, pairing laws
    for q_field, m_list in ((F2, (1, 3, 7, 9, 15, 21, 33)),
                            (F3, (2, 4, 8, 11, 13)),
                            (F4, (3, 5, 7, 9, 15)),
                            (F5, (2, 3, 11, 12)),
                            (field_make(7, 1), (3, 4, 19)),
                            (field_make(3, 2), (5, 7, 13))):
        q = q_field.order
        for m in m_list:
            fs = factor_xm1(q_field, m)
            prod = Poly.one(q_field)
            for f in fs.factors:
                prod = prod * f
            assert prod == Poly.x_pow_minus_one(q_field, m)
            table = cyclotomic_cosets(q, m)
            assert len(fs.factors) == len(table.cosets)
            assert sum(f.degree for f in fs.factors) == m
            for g, gs in fs.pairs:
                assert g.reciprocal() == gs and gs.reciprocal() == g and g != gs
                assert (-fs.rep(g)) % m in table.coset_of(fs.rep(gs))
            for f in fs.selfrec:
                assert f.reciprocal() == f
                assert (-fs.rep(f)) % m in table.coset_of(fs.rep(f))
            # x - 1 is always last among the self-reciprocal factors
            assert fs.selfrec[-1] == Poly.make(q_field, (q_field.neg(1), 1))
            for f in fs.factors:
                if f.degree <= 6 and q <= 5:
                    assert trial_division_irreducible(list(f.coeffs), q) or q_field.t > 1


def test_factor_xm1_large_splitting_field(monkeypatch):
    # one deliberately big case: w = ord_53(2) = 52, splitting field F_2^52,
    # where GF.mul multiplies polynomials (_raw_mul) unless an operand is 0
    # or 1, and GF.pow_ unless its base lies in F_2.  This run made 3,359
    # polynomial products before the first shortcut, and 1,926 before the
    # second and before primitive_mth_root dropped its last, unused product;
    # 1,850 before alpha's 53 powers came from one GF._powers call (20
    # products) in place of one square-and-multiply GF.pow_ per exponent.
    # The modulus search multiplies through _raw_mul too, so F_2^52 is built
    # first, and the factor cache starts empty, so the count does not depend
    # on which tests ran before
    field_make(2, 52)
    monkeypatch.setattr(poly, "_FACTOR_CACHE", {})
    calls = []
    raw_mul = GF._raw_mul
    monkeypatch.setattr(GF, "_raw_mul", lambda self, a, b: calls.append(1) or raw_mul(self, a, b))
    fs = factor_xm1(F2, 53)
    assert [f.coeffs for f in fs.factors] == [(1,) * 53, (1, 1)]
    assert len(calls) == 1472
    prod = Poly.one(F2)
    for f in fs.factors:
        prod = prod * f
    assert prod == Poly.x_pow_minus_one(F2, 53)


def test_factor_xm1_splitting_field_above_int64():
    # ord_83(4) = 41, so x^83 - 1 over F_4 splits in F_2^82, whose indices
    # int64 cannot hold: F_4's least root there comes from a subgroup built in
    # Python ints
    fs = factor_xm1(F4, 83)
    assert [f.degree for f in fs.factors] == [41, 41, 1]
    prod = Poly.one(F4)
    for f in fs.factors:
        prod = prod * f
    assert prod == Poly.x_pow_minus_one(F4, 83)


def test_three_factor_scan():
    assert three_factor_scan(2, 100) == [7, 17, 23, 41, 47, 71, 79, 97]
    assert three_factor_scan(4, 100) == [3, 5, 7, 11, 13, 19, 23, 29, 37, 47, 53,
                                         59, 61, 67, 71, 79, 83]
    assert three_factor_scan(3, 2) == []
    # prime squares also give exactly three factors, and the scan leaves them out
    raw = [m for m in range(1, 101) if m % 2 and len(cyclotomic_cosets(2, m).cosets) == 3]
    assert set(raw) - set(three_factor_scan(2, 100)) == {9, 25}
    # an independent count from the cosets, for every field of the tables
    for q in (2, 3, 5, 7, 11, 4, 9, 25, 49, 121):
        by_cosets = [m for m in range(2, 101) if is_prime(m) and q % m
                     and len(cyclotomic_cosets(q, m).cosets) == 3]
        assert three_factor_scan(q, 100) == by_cosets, q
    fs9 = factor_xm1(F2, 9)
    assert len(fs9.factors) == 3


def test_scan_matches_order_criterion_for_primes():
    # for prime m: exactly three cosets iff ord_m(q) = (m-1)/2
    from qckit.gf import multiplicative_order

    for q in (2, 3, 4, 5):
        for m in three_factor_scan(q, 100):
            if is_prime(m):
                assert multiplicative_order(q, m) == (m - 1) // 2


def _split_coset_124(q, m):
    # {1, 2, 4} split into {1} and {2, 4}: the product (x - alpha) leaves F_2
    return poly.CosetTable(q, m, ((0,), (1,), (2, 4), (3, 5, 6)))


# Each factor_xm1 self-check, broken by a monkeypatch, raises its typed error,
# so the checks also run under python -O.  x^7 - 1 over F_2 has a reciprocal
# pair of cubics, so every check is reached; the factor cache starts empty,
# so the factorization runs.
@pytest.mark.parametrize("owner,attr,fake,error", [
    (poly, "cyclotomic_cosets", _split_coset_124, MinimalPolynomialMismatch),
    (Poly, "reciprocal", lambda self: Poly.one(self.field), ReciprocalMismatch),
    (Poly, "x_pow_minus_one", staticmethod(lambda field, m: Poly.one(field)), FactorProductMismatch),
])
def test_factor_checks_raise(owner, attr, fake, error, monkeypatch):
    monkeypatch.setattr(poly, "_FACTOR_CACHE", {})
    monkeypatch.setattr(owner, attr, fake)
    with pytest.raises(error):
        factor_xm1(F2, 7)
