import time

import numpy as np
import pytest

from qckit import gf
from qckit.errors import (
    DivisionByZero,
    InvalidLogTable,
    InvalidSubfieldOrder,
    NoEmbedding,
    NonPrimeCharacteristic,
    NoRootOfThatOrder,
    NotASubfield,
    OrderCapExceeded,
    QCKitError,
)
from qckit.gf import (
    ADD_TABLE_MAX_ORDER,
    GF,
    Felt,
    _is_irreducible,
    embed,
    field_from_order,
    field_make,
    is_prime,
    multiplicative_order,
    primitive_mth_root,
    restrict,
    trace,
    trace_form,
    unembed,
)
from qckit.lincode import _check_conj_base, code_from_rows, code_power_q
from qckit.qc import decompose_ring

from oracles import coefficient_product, coefficient_tables, trial_division_irreducible


def test_canonical_moduli():
    assert field_make(2, 1).modulus == (0, 1)
    assert field_make(2, 2).modulus == (1, 1, 1)  # only irreducible quadratic
    assert field_make(2, 3).modulus == (1, 1, 0, 1)
    assert field_make(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert field_make(3, 2).modulus == (1, 0, 1)
    # above LOG_MAX_ORDER: a changed search would re-index every element
    assert field_make(2, 17).modulus == (1, 0, 0, 1) + (0,) * 13 + (1,)  # x^17 + x^3 + 1
    assert field_make(2, 44).modulus == (1, 0, 0, 0, 0, 1) + (0,) * 38 + (1,)  # x^44 + x^5 + 1
    assert field_make(2, 48).modulus == (1, 0, 1, 1, 0, 1) + (0,) * 42 + (1,)  # x^48 + x^5 + x^3 + x^2 + 1
    assert field_make(3, 11).modulus == (2, 0, 1) + (0,) * 8 + (1,)  # x^11 + x^2 + 2
    assert field_make(3, 20).modulus == (1, 2, 0, 1) + (0,) * 16 + (1,)  # x^20 + x^3 + 2x + 1
    assert field_make(11, 16).modulus == (5, 1, 1) + (0,) * 13 + (1,)  # x^16 + x^2 + x + 5


def test_canonical_modulus_f243_vs_trial_division_oracle():
    # Rabin's test agrees with trial division on every monic polynomial with
    # p^t <= 1024, reducible ones included: 5,309 polynomials
    for p, t_max in ((2, 10), (3, 6), (5, 4), (7, 3), (31, 2)):
        for t in range(1, t_max + 1):
            for idx in range(p**t):
                cand = [idx // p**pos % p for pos in range(t)] + [1]
                assert _is_irreducible(cand, p) == trial_division_irreducible(cand, p), (p, cand)
    # x^6 + x^4 + x + 1 = (x + 1)(x^2 + x + 1)(x^3 + x + 1) over F_2 has
    # x^64 = x, x^8 != x and x^4 != x: only the unit condition rejects it
    assert not _is_irreducible([1, 1, 0, 0, 1, 0, 1], 2)
    # enumerate monic quintics ascending on (c4,...,c0), keep the first passing
    # the independent trial-division test
    found = None
    for idx in range(3**5):
        rem = idx
        cs = [0] * 5
        for pos in range(5):
            cs[pos] = rem % 3
            rem //= 3
        cand = cs + [1]
        if trial_division_irreducible(cand, 3):
            found = tuple(cand)
            break
    assert found == (1, 2, 0, 0, 0, 1)
    assert field_make(3, 5).modulus == found


def test_field_make_caching_and_errors():
    assert field_make(2, 2) is field_make(2, 2)
    with pytest.raises(NonPrimeCharacteristic):
        field_make(4, 1)
    with pytest.raises(OrderCapExceeded):
        field_make(2, 80)


def test_is_prime_matches_a_sieve_and_rejects_strong_pseudoprimes():
    sieve = np.ones(10**5 + 1, dtype=bool)
    sieve[:2] = False
    for f in range(2, 317):  # Eratosthenes: 317^2 > 10^5
        if sieve[f]:
            sieve[f * f::f] = False
    assert [n for n in range(10**5 + 1) if is_prime(n)] == np.flatnonzero(sieve).tolist()
    # a Carmichael number, and strong pseudoprimes to the bases 2, 3, 5, 7 and
    # to every prime base up to 23
    assert not any(map(is_prime, (561, 3_215_031_751, 3_825_123_056_546_413_051)))
    assert all(map(is_prime, (2**31 - 1, 2**61 - 1, 2**64 - 59)))
    with pytest.raises(QCKitError):
        is_prime(2**89 - 1)  # above the range where the fixed bases decide


def test_field_make_of_a_prime_near_the_order_cap_is_quick(monkeypatch):
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    t0 = time.perf_counter()
    fld = field_make(2**61 - 1, 1)
    assert time.perf_counter() - t0 < 1.0
    assert fld.order == 2**61 - 1 and fld.mul(2**60, 2) == 1


def test_arithmetic_examples():
    f4 = field_make(2, 2)
    assert f4.mul(2, 2) == 3  # w^2 = w + 1 forced by x^2 + x + 1
    f3 = field_make(3, 1)
    assert f3.inv(2) == 2  # 2 * 2 = 4 = 1
    f243 = field_make(3, 5)
    rng = np.random.default_rng(3)
    for g in rng.integers(1, 243, size=8):
        assert f243.pow_(int(g), 242) == 1  # Lagrange


def test_field_axioms_randomized():
    rng = np.random.default_rng(11)
    for fld in (field_make(2, 1), field_make(3, 1), field_make(2, 2),
                field_make(5, 1), field_make(3, 2), field_make(3, 5)):
        for _ in range(40):
            a, b, c = (int(v) for v in rng.integers(0, fld.order, size=3))
            assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
            if a:
                assert fld.mul(a, fld.inv(a)) == 1
            assert fld.add(a, fld.neg(a)) == 0


def test_felt_operators_and_errors():
    # Felt is a bare (field, index) record for the benchmark harness: no
    # arithmetic of its own, and unembed is restrict on it
    f4, f64 = field_make(2, 2), field_make(2, 6)
    assert [name for name in vars(Felt) if not name.startswith("__")] == []
    with pytest.raises(TypeError):
        _ = Felt(f4, 2) + Felt(f4, 2)
    assert unembed(Felt(f64, embed(f4, f64, 3)), f4) == Felt(f4, 3)
    off_image = next(x for x in range(64) if x not in embed(f4, f64, np.arange(4)))
    with pytest.raises(NotASubfield):
        unembed(Felt(f64, off_image), f4)


def test_frobenius():
    # Frobenius x -> x^(q^k) is pow_arr with the exponent q^k, and
    # code_power_q on the rows of a code
    f4 = field_make(2, 2)
    assert f4.pow_arr([0, 1, 2, 3], 2).tolist() == [0, 1, 3, 2]  # w -> w^2 = w + 1
    assert f4.pow_arr([0, 1, 2, 3], 2**0).tolist() == [0, 1, 2, 3]
    f64 = field_make(2, 6)
    x = np.arange(64)
    assert (f64.pow_arr(x, 4**3) == x).all()  # a^(4^3) = a
    c = code_from_rows(f4, 3, [(1, 2, 3)])
    assert code_power_q(c, 2).gen.tolist() == [[1, 3, 2]]
    assert code_power_q(code_power_q(c, 2), 2) == c
    with pytest.raises(InvalidSubfieldOrder):
        _check_conj_base(f4, 8)
    with pytest.raises(InvalidSubfieldOrder):
        code_power_q(c, 3)


def test_frobenius_fixes_exactly_the_subfield():
    # x -> x^q is an automorphism fixing exactly the subfield of order q
    for (p, t, b) in ((2, 4, 2), (2, 6, 3), (3, 4, 2)):
        fld = field_make(p, t)
        q = p**b
        x = np.arange(fld.order)
        assert (fld.pow_arr(x, q) == x).sum() == q
        rng = np.random.default_rng(7)
        a, b2 = rng.integers(0, fld.order, size=(2, 30))
        fa, fb = fld.pow_arr(a, q), fld.pow_arr(b2, q)
        assert (fld.pow_arr(fld.add_arr(a, b2), q) == fld.add_arr(fa, fb)).all()
        assert (fld.pow_arr(fld.mul_arr(a, b2), q) == fld.mul_arr(fa, fb)).all()


def test_trace_examples():
    # the relative trace of a constituent field down to F_q, taken in the
    # decomposition's common field K
    f2, f4 = field_make(2, 1), field_make(2, 2)
    dec = decompose_ring(f2, 3, 1)  # x^3 - 1 = (x - 1)(x^2 + x + 1): F_4 constituent
    # Tr(0) = 0, Tr(1) = 1 + 1 = 0, Tr(w) = w + w^2 = 1, Tr(w + 1) = 1
    assert trace(f4, dec.common_field, f2, np.arange(4)).tolist() == [0, 0, 1, 1]
    assert trace(f4, dec.common_field, f2, 2) == 1
    with pytest.raises(NoEmbedding):
        trace(field_make(3, 1), dec.common_field, f2, 0)
    with pytest.raises(NoEmbedding):  # F_4 is no subfield of F_8
        trace(field_make(2, 3), field_make(2, 6), f4, 0)


def test_trace_linear_and_surjective():
    # (q, m) whose constituent fields cover F_16/F_4, F_64/F_4, F_81/F_9,
    # F_64/F_8 and, computed inside a larger K = F_64, F_4/F_2 and F_8/F_2
    rng = np.random.default_rng(1)
    for q, m in ((4, 5), (4, 9), (9, 5), (8, 9), (2, 21)):
        base = field_from_order(q)
        dec = decompose_ring(base, m, 1)
        K = dec.common_field
        for cf in {s.cfield for s in dec.slots if s.degree > 1}:
            tab = trace(cf, K, base, np.arange(cf.order))
            assert set(tab.tolist()) == set(range(q))  # surjective onto F_q
            # F_q-linear, with F_q inside cf as the elements that K's copy of F_q pulls back to
            scalars = restrict(cf, K, embed(base, K, np.arange(q)))
            a, b = rng.integers(0, cf.order, size=(2, 25))
            c = rng.integers(0, q, size=25)
            assert (tab[cf.add_arr(a, b)] == base.add_arr(tab[a], tab[b])).all()
            assert (tab[cf.mul_arr(scalars[c], a)] == base.mul_arr(c, tab[a])).all()


def test_embed_least_root_and_hom():
    f2, f4, f64 = field_make(2, 1), field_make(2, 2), field_make(2, 6)
    assert embed(f2, f4, np.arange(2)).tolist() == [0, 1]
    fwd = embed(f4, f64, np.arange(4))
    # oracle: enumerate the roots of x^2 + x + 1 in F_64 ascending
    roots = [x for x in range(64) if f64.add(f64.mul(x, x), f64.add(x, 1)) == 0]
    assert fwd[2] == min(roots) == 58
    x = np.arange(4)
    assert (fwd[f4.add_arr(x[:, None], x)] == f64.add_arr(fwd[:, None], fwd)).all()
    assert (fwd[f4.mul_arr(x[:, None], x)] == f64.mul_arr(fwd[:, None], fwd)).all()
    # the inverse map holds the image and nothing else
    assert restrict(f4, f64, fwd).tolist() == [0, 1, 2, 3]
    for y in set(range(64)) - set(fwd.tolist()):
        with pytest.raises(NotASubfield):
            restrict(f4, f64, y)
    for dst in (field_make(2, 3), field_make(3, 2)):
        with pytest.raises(NoEmbedding):
            embed(f4, dst, 1)


def test_embed_tower_prime_base():
    # towers starting at the prime field always compose (1 -> 1 pins the map)
    for (p, a, b) in ((2, 2, 6), (3, 2, 4), (5, 1, 2)):
        Fa, Fb = field_make(p, a), field_make(p, b if b % a == 0 else a * b)
        base = field_make(p, 1)
        x = np.arange(p)
        assert (embed(Fa, Fb, embed(base, Fa, x)) == embed(base, Fb, x)).all()


@pytest.mark.xfail(strict=True,
                   reason="least-root embeddings are not tower-coherent: "
                          "F_8 in F_64 in F_4096 composes to a different root")
def test_embed_tower_extension_base_known_exception():
    f8, f64, f4096 = field_make(2, 3), field_make(2, 6), field_make(2, 12)
    x = np.arange(8)
    assert (embed(f64, f4096, embed(f8, f64, x)) == embed(f8, f4096, x)).all()


def reference_embedding(src, dst):
    """The canonical embedding over the whole of src as a dict: the identity
    on a prime field or on dst itself, otherwise the power map x^i -> r^i for
    the least root r of src's modulus, found by scanning every element of dst."""
    if src == dst or src.t == 1:
        return {a: a for a in range(src.order)}

    def at(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = dst.add(dst.mul(acc, x), c)
        return acc

    root = min(x for x in range(dst.order) if at(src.modulus, x) == 0)
    powers = [dst.pow_(root, i) for i in range(src.t)]
    out = {}
    for a in range(src.order):
        acc = 0
        for c, pw in zip(src.coeffs(a), powers):
            acc = dst.add(acc, dst.mul(c, pw))
        out[a] = acc
    return out


def reference_trace(src, dst, base):
    """Tr_{src/base} over the whole of src as a list: the sum of the
    Frobenius powers y^(|base|^j) of src's embedded copy y in dst, pulled
    back along base's embedding in dst."""
    back = {v: c for c, v in reference_embedding(base, dst).items()}
    fwd = reference_embedding(src, dst)
    out = []
    for a in range(src.order):
        acc = 0
        for j in range(src.t // base.t):
            acc = dst.add(acc, dst.pow_(fwd[a], base.order**j))
        out.append(back[acc])
    return out


# every field pair the embedding and trace tests above use: (p, t) of source
# and target, and the (q, m) of the trace tests' decompositions
EMBED_PAIRS = [((2, 1), (2, 2)), ((2, 2), (2, 6)), ((2, 1), (2, 6)), ((3, 1), (3, 2)),
               ((3, 2), (3, 4)), ((3, 1), (3, 4)), ((5, 1), (5, 1)), ((5, 1), (5, 2)),
               ((2, 3), (2, 6)), ((2, 6), (2, 12)), ((2, 3), (2, 12))]
TRACE_RINGS = [(2, 3), (4, 5), (4, 9), (9, 5), (8, 9), (2, 21)]


def test_field_maps_match_whole_field_reference():
    pairs = {(field_make(*s), field_make(*d)) for s, d in EMBED_PAIRS}
    traces = set()
    for q, m in TRACE_RINGS:
        dec = decompose_ring(field_from_order(q), m, 1)
        K = dec.common_field
        for cf in {s.cfield for s in dec.slots}:
            traces.add((cf, K, dec.q_field))
            pairs |= {(cf, K), (dec.q_field, K)}
    assert len(pairs) == 16 and len(traces) == 14
    for src, dst in pairs:
        ref = reference_embedding(src, dst)
        x = np.arange(src.order)
        assert embed(src, dst, x).tolist() == [ref[a] for a in x], (src, dst)
        assert [embed(src, dst, int(a)) for a in x] == [ref[a] for a in x]
        assert restrict(src, dst, embed(src, dst, x)).tolist() == x.tolist()
        for y in sorted(set(range(dst.order)) - set(ref.values())):
            with pytest.raises(NotASubfield):
                restrict(src, dst, y)
    for src, dst, base in traces:
        ref = reference_trace(src, dst, base)
        x = np.arange(src.order)
        assert trace(src, dst, base, x).tolist() == ref
        # the trace form: Tr(a * b) at (a, b), for every pair, with b's shape kept
        b = np.stack([x, x[::-1]])
        assert (trace_form(src, dst, base, b)(x) == np.array(ref)[src.mul_arr(x[:, None, None], b)]).all()
        assert trace_form(src, dst, base, 1)(2 % src.order) == ref[2 % src.order]


def test_primitive_mth_root():
    f4 = field_make(2, 2)
    assert primitive_mth_root(f4, 3) == 2  # w has order 3
    assert primitive_mth_root(f4, 1) == 1
    f8 = field_make(2, 3)
    # oracle: exhaustive multiplicative orders
    orders = {a: multiplicative_order_in(f8, a) for a in range(1, 8)}
    least_gen = min(a for a, o in orders.items() if o == 7)
    assert primitive_mth_root(f8, 7) == least_gen == 2
    f64 = field_make(2, 6)
    a7 = primitive_mth_root(f64, 7)
    assert multiplicative_order_in(f64, a7) == 7
    assert a7 == min(x for x in range(1, 64) if multiplicative_order_in(f64, x) == 7)
    with pytest.raises(NoRootOfThatOrder):
        primitive_mth_root(f4, 5)


def multiplicative_order_in(fld, a):
    x, o = a, 1
    while x != 1:
        x = fld.mul(x, a)
        o += 1
    return o


def test_serialization_round_trip():
    f9 = field_make(3, 2)
    js = f9.to_json()
    assert js == {"p": 3, "t": 2, "modulus": [1, 0, 1]}
    assert f9.coeffs(5) == (2, 1)
    assert f9.from_coeffs((2, 1)) == 5


def test_multiplicative_order_helper():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 11) == 5
    assert multiplicative_order(4, 7) == 3


def test_trace_identity_on_same_field():
    # the s = 1 relative trace is the identity map: the x - 1 slot's F_q
    f4 = field_make(2, 2)
    dec = decompose_ring(f4, 5, 1)
    assert dec.slots[-1].cfield == f4
    assert trace(f4, dec.common_field, f4, np.arange(4)).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("raw_mul", [
    lambda self, a, b: 1,  # every candidate has order 1: no primitive element
    lambda self, a, b: (a + b) % 9,  # 1 passes the order test, its powers never return to 1
])
def test_log_table_checks_raise(raw_mul, monkeypatch):
    # typed errors, so the checks also run under python -O
    fld = GF(3, 2, field_make(3, 2).modulus)  # uncached twin: builds its own logs
    monkeypatch.setattr(GF, "_raw_mul", raw_mul)
    with pytest.raises(InvalidLogTable):
        fld.mul(2, 3)


def test_array_arithmetic_matches_scalar():
    # every branch: F_2 (XOR, AND), characteristic 2 (XOR, identity negation),
    # prime fields, odd extension fields with an add table (F_9, F_243)
    # and above ADD_TABLE_MAX_ORDER on the digit loop (F_289, F_3125), and
    # orders above LOG_MAX_ORDER: the largest prime on the int64 product path,
    # and a prime whose products would overflow int64 (object arrays of Python
    # ints).  Array and scalar share one product body above LOG_MAX_ORDER, so
    # test_arithmetic_above_log_tables_matches_coefficient_oracle checks it there
    assert 243 <= ADD_TABLE_MAX_ORDER < 289
    assert is_prime(2**31 - 1) and is_prime(2**32 + 15)
    rng = np.random.default_rng(5)
    for p, t in ((2, 1), (7, 1), (2, 2), (2, 3), (2, 6), (3, 2), (3, 5), (17, 2), (5, 5), (65537, 1),
                 (2**31 - 1, 1), (2**32 + 15, 1)):
        fld = field_make(p, t)
        a = rng.integers(0, fld.order, size=200)
        b = rng.integers(0, fld.order, size=200)
        a[:7] = 0
        b[5:9] = 0
        assert fld.add_arr(a, b).tolist() == [fld.add(int(x), int(y)) for x, y in zip(a, b)]
        assert fld.neg_arr(a).tolist() == [fld.neg(int(x)) for x in a]
        assert fld.mul_arr(a, b).tolist() == [fld.mul(int(x), int(y)) for x, y in zip(a, b)]
        for e in (0, 1, p, fld.order - 1, 3 * fld.order + 2, -2):
            base = a if e >= 0 else b[b != 0]
            assert fld.pow_arr(base, e).tolist() == [fld.pow_(int(x), e) for x in base]
        with pytest.raises(DivisionByZero):
            fld.pow_arr(a, -1)


def test_array_arithmetic_on_unsigned_input():
    # uint16 arrays give the int64 results: negation must not wrap around,
    # products stay below 2^16 on the fields whose dtype is uint16, and
    # larger fields widen to int64
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 13, 61, 67, 251, 65521):
        fld = field_make(p, 1)
        a = rng.integers(0, p, size=(40, 30))
        b = rng.integers(0, p, size=(40, 30))
        a[0] = 0
        a[1], b[1] = p - 1, p - 1
        ua, ub = a.astype(np.uint16), b.astype(np.uint16)
        for op, args, wide in ((fld.add_arr, (ua, ub), (a, b)), (fld.neg_arr, (ua,), (a,)),
                               (fld.mul_arr, (ua, ub), (a, b)), (fld.mul_arr, (ua, p - 1), (a, p - 1))):
            got = op(*args)
            assert got.tolist() == op(*wide).tolist(), (p, op.__name__)
            assert got.dtype == fld.dtype, (p, op.__name__)


@pytest.mark.parametrize("p, t", [(2, 2), (2, 3), (3, 2), (2, 6), (3, 5), (17, 2)])
def test_arithmetic_matches_coefficient_oracle(p, t):
    # every pair, against tables built from coefficient lists: XOR in
    # characteristic 2, the add table (F_9, F_243) and the digit loop above
    # ADD_TABLE_MAX_ORDER (F_289)
    fld = field_make(p, t)
    add, mul = coefficient_tables(p, fld.modulus)
    neg = [row.index(0) for row in add]
    inv = [0] + [row.index(1) for row in mul[1:]]
    assert [x.tolist() for x in fld.tables()] == [add, mul, neg, inv]
    els = range(fld.order)
    assert [[fld.add(a, b) for b in els] for a in els] == add
    assert [[fld.mul(a, b) for b in els] for a in els] == mul
    assert [fld.neg(a) for a in els] == neg


def coefficient_power(p, modulus, a, e):
    """a^e for e >= 0 by square-and-multiply over coefficient_product."""
    out = 1
    while e:
        if e & 1:
            out = coefficient_product(p, modulus, out, a)
        a = coefficient_product(p, modulus, a, a)
        e >>= 1
    return out


@pytest.mark.parametrize("p, t", [(2, 17), (2, 61), (3, 11), (5, 8), (65537, 2), (2**31 - 1, 2)])
def test_arithmetic_above_log_tables_matches_coefficient_oracle(p, t):
    # the product body above LOG_MAX_ORDER, scalar and array, against
    # coefficient lists; F_(2^31 - 1)^2 is the largest-p extension field under
    # the order cap, where digit products reach 2^62
    fld = field_make(p, t)
    assert fld.order > 2**16
    rng = np.random.default_rng(p + t)
    a = rng.integers(0, fld.order, size=300)
    b = rng.integers(0, fld.order, size=300)
    a[:3], b[2:5] = 0, 1
    a[5:8] = b[8:11] = fld.order - 1
    want = [coefficient_product(p, fld.modulus, int(x), int(y)) for x, y in zip(a, b)]
    assert [fld.mul(int(x), int(y)) for x, y in zip(a, b)] == want
    assert fld.mul_arr(a, b).tolist() == want
    units = [int(x) for x in b if x]
    assert all(coefficient_product(p, fld.modulus, x, fld.inv(x)) == 1 for x in units)
    assert fld.pow_arr(a, 0).tolist() == [1] * 300
    assert fld.pow_arr(a, 1).tolist() == a.tolist()
    assert fld.pow_arr(a, p).tolist() == [coefficient_power(p, fld.modulus, int(x), p) for x in a]
    assert fld.pow_arr(a, fld.order - 1).tolist() == [int(x != 0) for x in a]  # Lagrange
    squares = [coefficient_product(p, fld.modulus, x, x) for x in units]
    assert [coefficient_product(p, fld.modulus, y, s)
            for y, s in zip(fld.pow_arr(units, -2).tolist(), squares)] == [1] * len(units)
