import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qckit.errors import (
    BudgetExceeded,
    DimensionMismatch,
    LengthMismatch,
    MixedFields,
    OrderNotSquare,
    PreconditionViolated,
    RepeatedEvaluationPoint,
    ZeroMultiplier,
)
from qckit.gf import LOG_MAX_ORDER, field_make
from qckit.lincode import (
    _BLOCK,
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
    _block_zeros,
    _gram,
    _information_sets,
    _min_weight,
    _rref,
    _stage_blocks,
)
from qckit.qc import (
    ConstituentAssignment,
    PairAssignment,
    SelfrecAssignment,
    assemble_qc,
    decompose_ring,
)

from oracles import (
    brute_dual_vectors,
    eliminated_duality_flags,
    eliminated_information_sets,
    naive_min_distance,
    scalar_gram,
    scalar_kernel,
    scalar_rref,
)

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
    # entries are integers: floats are rejected, never truncated
    for rows in ([[0.5, 1.9]], [[1, 2.0]], np.array([[0.5, 1.9]]), np.array([[0.0, 1.0]])):
        with pytest.raises(MixedFields):
            code_from_rows(F5, 2, rows)
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
    # q^k = 4^8 exceeds the budget, but the identity generator certifies
    # d = 1 after its weight-1 messages: exact in either mode
    c = code_from_rows(F4, 8, np.eye(8, dtype=int))
    rep = min_distance(c, budget=100)
    assert rep.mode == "exact" and rep.enumerated <= 100
    assert rep.d_exact == rep.d_lower == rep.d_upper == 1
    assert min_distance(c, budget=100, mode="bound") == rep
    # a budget that ends before the certificate: an interval, or BudgetExceeded
    c = esd_634()
    low = min_distance(c, budget=1, mode="bound")
    assert low.mode == "lower-upper" and low.d_exact is None and low.enumerated == 1
    assert low.d_lower < 4 <= low.d_upper
    with pytest.raises(BudgetExceeded):
        min_distance(c, budget=1)
    with pytest.raises(PreconditionViolated):
        min_distance(c, mode="auto")


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
    # shapes that stress the information sets: zero columns (never a pivot),
    # repeated columns, k = n (one set), and k = 2 with n >= 10 (many sets)
    for p, t in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 6), (5, 5)):
        fld = field_make(p, t)
        for k, n in ((1, 6), (2, 7), (3, 8), (1, 1), (2, 2), (4, 4), (7, 7), (2, 10), (2, 13)):
            if fld.order**k > 5000:
                continue
            mat = rng.integers(0, fld.order, size=(k, n))
            for shape in ("random", "zero columns", "repeated columns"):
                if shape == "zero columns":
                    mat[:, [0, n // 2]] = 0
                elif shape == "repeated columns":
                    mat[:, n // 2:] = mat[:, :n - n // 2]
                c = code_from_rows(fld, n, mat)
                if c.k:
                    assert min_distance(c).d_exact == naive_min_distance(c), (fld, k, n, shape)
    # the only weight-2 class is g_1 - g_2, whose message on each of the three
    # information sets has weight 2 and a coefficient other than 1
    c = code_from_rows(F3, 7, [(1, 0, 0, 0, 2, 0, 1), (0, 1, 0, 0, 2, 0, 1),
                               (0, 0, 1, 0, 2, 1, 2), (0, 0, 0, 1, 0, 2, 2)])
    assert min_distance(c).d_exact == naive_min_distance(c) == 2


def test_incomplete_enumeration_raises(monkeypatch):
    from qckit import lincode

    # the engine reports the open interval [1, 2]: not certified
    monkeypatch.setattr(lincode, "_min_weight", lambda *args: (2, 1, 1))
    c = code_from_rows(F2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    with pytest.raises(BudgetExceeded):
        min_distance(c, mode="exact")
    with pytest.raises(BudgetExceeded):
        min_weight_outside(c, c)
    rep = min_distance(c, mode="bound")
    assert rep.mode == "lower-upper" and (rep.d_lower, rep.d_upper) == (1, 2)


def test_min_distance_large_field():
    f3125 = field_make(5, 5)
    c = grs_code(f3125, [0, 1, 2, 3], [1, 1, 1, 1], 1)
    assert min_distance(c).d_exact == 4
    # MDS codes over F_3125 and above LOG_MAX_ORDER: d = n - k + 1
    for fld, n, k in ((f3125, 12, 2), (field_make(65537, 1), 5, 1), (field_make(2, 17), 6, 1)):
        c = grs_code(fld, range(1, n + 1), range(1, n + 1), k)
        assert min_distance(c).d_exact == n - k + 1, fld
    # primes on both sides of int64 products, p^2 < 2^63: 2^31 - 1 multiplies
    # in int64, 2^31 + 11 exactly in Python.  Messages of weight 2..4 with
    # every entry and coefficient at p - 1 (the largest terms) and random
    # ones must match scalar sums.  One coefficient of the tail varies per
    # codeword and the positions above it are fixed, as in the blocks of a
    # stage whose supports exceed one block.
    rng = np.random.default_rng(11)
    for p in (2**31 - 1, 2**31 + 11):
        fld = field_make(p, 1)
        for w in (2, 3, 4):
            rows = rng.integers(0, p, size=(6, 5))
            rows[0] = p - 1
            for supp in (list(range(w)), list(range(6 - w, 6)), [0] * w):
                coef = [1] + [p - 1] * (w - 1)
                tail = [p - 1, int(rng.integers(1, p)), 1]
                block = (np.array([supp[:1]]), np.zeros(1, dtype=np.int64), np.array(supp[1:2]),
                         fld.neg_arr(np.array(tail)),
                         (np.array(supp[2:]), fld.neg_arr(np.array(coef[2:]))))
                for v, t in enumerate(tail):
                    want = [0] * 5
                    for s, c in zip(supp, coef[:1] + [t] + coef[2:]):
                        want = [fld.add(x, fld.mul(c, int(y))) for x, y in zip(want, rows[s])]
                    got = _block_zeros(fld, rows, block)[v]
                    assert got.tolist() == [x == 0 for x in want], (p, w, supp, t)
        # and the engine over them: k = 3 runs budgeted weight-2 blocks, and a
        # naive enumeration of p^3 messages is out of reach, so the check is
        # the MDS distance n - k + 1
        c = grs_code(fld, range(1, 9), [1] * 8, 3)
        rep = min_distance(c, budget=3000, mode="bound")
        assert rep.enumerated == 3000 and rep.d_lower <= 6 == rep.d_upper, (p, rep)


def test_stage_blocks_follow_the_message_order():
    # a stage's blocks hold at most _BLOCK codewords and list the messages in
    # the engine's order: supports lexicographic, then the coefficients of
    # rows i_1, ..., i_{w-1} as base-(q - 1) digits, i_1's the least
    # significant.  The cases cover whole supports packed per block, one
    # support per block, runs of the tail's coefficients below and above a
    # fixed digit, and q - 1 > _BLOCK.
    rng = np.random.default_rng(29)
    f64, f3125, f65537 = field_make(2, 6), field_make(5, 5), field_make(65537, 1)
    cases = ((F2, 7, 1), (F2, 7, 3), (F3, 6, 4), (F5, 6, 3), (F9, 5, 2), (f64, 5, 3),
             (f64, 5, 4), (f3125, 4, 3), (f3125, 5, 4), (f65537, 4, 2), (f65537, 4, 3))
    for fld, k, w in cases:
        q = fld.order
        rows = rng.integers(0, q, size=(k, 6))
        got, sizes = [], []
        for block in _stage_blocks(fld, k, w):
            zero = _block_zeros(fld, rows, block)
            sizes.append(len(zero))
            got += zero.tolist()
            if len(got) > 2 * _BLOCK:
                break
        stage = math.comb(k, w) * (q - 1) ** (w - 1)
        assert max(sizes) <= _BLOCK and len(got) == min(stage, sum(sizes)), (fld, k, w)
        messages = ((supp, (1,) + digits[::-1])
                    for supp in itertools.combinations(range(k), w)
                    for digits in itertools.product(range(1, q), repeat=w - 1))
        for i, (supp, coef) in enumerate(itertools.islice(messages, len(got))):
            word = [0] * 6
            for s, cf in zip(supp, coef):
                word = [fld.add(x, fld.mul(cf, int(y))) for x, y in zip(word, rows[s])]
            assert got[i] == [x == 0 for x in word], (fld, k, w, i)


def test_engine_cuts_match_the_recorded_traces():
    # tools/engine_cuts.py recorded _min_weight's (best, lower, visited) at
    # budgets that end inside and at the edges of every stage; equal results
    # at every budget mean the engine visits the same codewords in the same
    # order
    data = json.loads((Path(__file__).parent / "data" / "engine_cuts.json").read_text())
    assert len(data["codes"]) == 22
    for code in data["codes"]:
        fld = field_make(code["p"], code["t"])
        rows = np.array(code["rows"], dtype=np.int64)
        c = code_from_rows(fld, rows.shape[1], rows)
        syn = np.array(code["syn"], dtype=np.int64)
        for run in code["runs"]:
            got = _min_weight(fld, c.gen, c.pivots, syn if run["syn"] else None, run["budget"])
            assert list(got) == run["result"], (code["name"], run)


def test_information_sets_match_elimination_oracle(monkeypatch):
    from qckit import lincode

    rng = np.random.default_rng(23)
    seen = set()
    for p, t in ((2, 1), (3, 1), (2, 2), (3, 2), (5, 5)):
        fld = field_make(p, t)
        for k, n in ((1, 5), (3, 9), (4, 4), (2, 11), (5, 12), (6, 6)):
            for shape in ("random", "zero columns"):
                mat = rng.integers(0, fld.order, size=(k, n))
                if shape == "zero columns":
                    mat[:, [1, n // 2]] = 0
                c = code_from_rows(fld, n, mat)
                if c.k == 0:
                    continue
                sets = _information_sets(fld, c.gen, c.pivots)
                assert [(g.tolist(), r) for g, r in sets] == \
                    eliminated_information_sets(fld, c.gen), (fld, k, n, shape)
                # Gamma_0 is the generator itself: one elimination per later set
                calls = []

                def counted(*args):
                    calls.append(args)
                    return _rref(*args)

                monkeypatch.setattr(lincode, "_rref", counted)
                min_distance(c, budget=1000, mode="bound")
                monkeypatch.setattr(lincode, "_rref", _rref)
                assert len(calls) == len(sets) - 1, (fld, k, n, shape)
                seen.add((c.k == n, len(sets)))
    assert (True, 1) in seen and any(s > 2 for _, s in seen)  # k = n and many sets


def test_min_distance_bound_mode_is_sound():
    # codes whose d is known: random ones checked by the oracle, MDS codes,
    # and example41's [21,12]_4 (d = 5, certified by MacWilliams in criterion 3)
    rng = np.random.default_rng(17)
    known = []
    for fld, k, n in ((F2, 8, 20), (F3, 6, 14), (F4, 5, 12), (F9, 3, 9)):
        c = code_from_rows(fld, n, rng.integers(0, fld.order, size=(k, n)))
        known.append((c, naive_min_distance(c)))
    # d = 2 only on the last row of the first information set, so a budget
    # that ends inside the first stage must not count that stage as done
    light = code_from_rows(F2, 12, [(1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1),
                                    (0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1),
                                    (0, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1),
                                    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1)])
    known.append((light, naive_min_distance(light)))
    for fld, n, k in ((F9, 8, 4), (field_make(5, 5), 10, 3), (field_make(65537, 1), 8, 3)):
        known.append((grs_code(fld, range(1, n + 1), [1] * n, k), n - k + 1))
    dec = decompose_ring(F4, 7, 3)
    F64 = dec.pair_slots[0][0].cfield
    asn = ConstituentAssignment((PairAssignment(code_from_rows(F64, 3, [(F64.gen,) * 3])),),
                                (SelfrecAssignment(full_space(F4, 3)),))
    known.append((assemble_qc(dec, asn).lin, 5))
    for c, d in known:
        for budget in (0, 1, 5, 40, 300, 3000):
            rep = min_distance(c, budget=budget, mode="bound")
            assert rep.enumerated <= budget
            upper = rep.d_upper if rep.d_upper is not None else c.n + 1
            assert 1 <= rep.d_lower <= d <= upper, (c, budget, rep)
            if rep.mode == "exact":  # certified: the interval has closed on d
                assert rep.d_exact == rep.d_lower == rep.d_upper == d
            else:
                assert rep.mode == "lower-upper" and rep.d_exact is None
                assert rep.d_lower < upper
            if rep.enumerated < budget:  # stopped early: certified
                assert rep.mode == "exact"


def _traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_min_distance_memory_example42():
    from qckit.reproduce import _example42_assignment

    dec, asn, _ = _example42_assignment()
    code = assemble_qc(dec, asn).lin  # [56,30]_2
    # q^k = 2^30 exceeds the budget; the engine certifies d = 8 far below it
    rep, peak = _traced_peak(lambda: min_distance(code, budget=2**25))
    assert rep.mode == "exact" and rep.d_exact == 8 and rep.enumerated == 348872
    assert peak < 16e6, f"engine peaked at {peak / 1e6:.1f} MB"


def test_min_distance_memory_many_blocks_large_field():
    # [12,3] MDS over F_65537: each weight-2 support has 65536 coefficient
    # patterns, 16 blocks, so a budget of 2^17 codewords spans 32 blocks
    fld = field_make(65537, 1)
    c = grs_code(fld, range(1, 13), [1] * 12, 3)
    rep, peak = _traced_peak(lambda: min_distance(c, budget=2**17, mode="bound"))
    assert rep.mode == "lower-upper" and rep.enumerated == 2**17
    assert rep.d_lower <= 10 == rep.d_upper
    assert peak < 16e6, f"engine peaked at {peak / 1e6:.1f} MB"


def test_min_distance_memory_wide_f2_stage():
    # a random [88,44]_2 code: the budget covers stage (4, 0) in full, whose
    # C(44, 4) = 135,751 supports span 34 blocks, and ends inside (4, 1)
    rng = np.random.default_rng(1)
    c = code_from_rows(F2, 88, rng.integers(0, 2, size=(44, 88)))
    before = 2 * (44 + 946 + 13244)  # weights 1 to 3 on both information sets
    assert c.k == 44 and before + 135751 < 200_000
    rep, peak = _traced_peak(lambda: min_distance(c, budget=200_000, mode="bound"))
    assert rep.enumerated == 200_000 and rep.d_lower <= 10 <= rep.d_upper
    assert peak < 16e6, f"engine peaked at {peak / 1e6:.1f} MB"


def test_negative_budget_is_rejected():
    c = code_from_rows(F2, 24, np.random.default_rng(5).integers(0, 2, size=(12, 24)))
    for run in (lambda b: min_distance(c, budget=b, mode="bound"),
                lambda b: min_distance(c, budget=b),
                lambda b: min_weight_outside(c, c, budget=b)):
        with pytest.raises(PreconditionViolated):
            run(-5)
    rep = min_distance(c, budget=0, mode="bound")  # budget 0 visits nothing
    assert rep.enumerated == 0 and rep.mode == "lower-upper"


def test_duality_class_examples():
    fl = duality_class(eso_523())
    assert fl.eso and not fl.esd and not fl.edc
    assert fl.hso is None  # order 3 is not a square
    assert duality_class(esd_634()).esd
    fl_full = duality_class(full_space(F2, 8))
    assert fl_full.edc and not fl_full.eso


# prime fields, the Hermitian fields F_4, F_9 and F_64, and F_3125 above the
# add-table limit; (k, n) shapes include k = 0 and k = n
FLAG_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 6), (5, 5))
FLAG_SHAPES = ((0, 4), (4, 4), (1, 5), (2, 6), (3, 6), (4, 9))


def _hermitian_self_dual(fld):
    """Two copies of the line (1, a) with a^(r+1) = -1, r^2 = |F|: every row
    has Hermitian norm 1 + a^(r+1) = 0, and k = n/2."""
    r = fld.p ** (fld.t // 2)
    a = next(x for x in range(1, fld.order) if fld.pow_(x, r + 1) == fld.neg(1))
    return code_from_rows(fld, 4, [(1, a, 0, 0), (0, 0, 1, a)])


def _oracle_matrices(seed):
    """Seeded matrices over every FLAG_FIELDS field and shape, each once as
    drawn and once with two zero columns."""
    rng = np.random.default_rng(seed)
    for p, t in FLAG_FIELDS:
        fld = field_make(p, t)
        for k, n in FLAG_SHAPES:
            for zero_columns in (False, True):
                mat = rng.integers(0, fld.order, size=(k, n))
                if zero_columns:
                    mat[:, [0, n // 2]] = 0
                yield fld, mat


def test_duality_flags_match_elimination_oracle():
    positives = (eso_523(), esd_634(), _hermitian_self_dual(F4), _hermitian_self_dual(F9),
                 full_space(F4, 3), full_space(F5, 4), zero_code(F9, 3))
    cases = list(_oracle_matrices(71)) + [(c.field, c.gen) for c in positives]
    held = set()
    for fld, mat in cases:
        c = code_from_rows(fld, mat.shape[1], mat)
        flags = duality_class(c).to_json()
        assert flags == eliminated_duality_flags(fld, mat, c.n), (fld, mat.tolist())
        held.update(name for name, value in flags.items() if value)
    assert held == {"ESO", "EDC", "ESD", "HSO", "HDC", "HSD"}


def test_derived_codes_match_elimination_of_their_rows():
    for fld, mat in _oracle_matrices(73):
        n = mat.shape[1]
        c = code_from_rows(fld, n, mat)
        assert (concat_copies(c, 3).gen.tolist(), concat_copies(c, 3).pivots) == \
            scalar_rref(fld, np.hstack([mat] * 3))
        mirrored = code_from_rows(fld, n, c.gen[:, ::-1])  # same dimension, other pivots
        j = juxtapose(c, mirrored)
        assert (j.gen.tolist(), j.pivots) == scalar_rref(fld, np.hstack([c.gen, mirrored.gen]))
        for e in (e for e in range(1, fld.t + 1) if fld.t % e == 0):
            powered = [[fld.pow_(int(v), fld.p**e) for v in row] for row in mat]
            cp = code_power_q(c, fld.p**e)
            assert (cp.gen.tolist(), cp.pivots) == scalar_rref(fld, powered), (fld, e)
        if fld.t % 2 == 0:
            conj = [[fld.pow_(int(v), fld.p ** (fld.t // 2)) for v in row] for row in mat]
            dh = dual_hermitian(c)
            assert (dh.gen.tolist(), dh.pivots) == scalar_rref(fld, scalar_kernel(fld, conj, n))


def test_grs():
    g = grs_code(F5, [0, 1, 2, 3], [1, 1, 1, 1], 2)
    assert naive_min_distance(g) == 3  # [4,2,3] MDS
    assert grs_code(F5, [0, 1, 2], [1, 1, 1], 3) == full_space(F5, 3)
    with pytest.raises(RepeatedEvaluationPoint):
        grs_code(F5, [0, 0, 1], [1, 1, 1], 2)
    with pytest.raises(ZeroMultiplier):
        grs_code(F5, [0, 1, 2], [1, 0, 1], 2)
    # points and multipliers are element indices, not reduced: 9 would pass
    # the distinctness check as a second 4 and give a [2,1] code
    for fld, alphas, vs in ((F5, [4, 9], [1, 1]), (F5, [-1, 1], [1, 1]), (F5, [0, 1], [1, 6]),
                            (F5, [0, 1.5], [1, 1]), (F4, [1, 5], [1, 1]), (F4, [1, 2], [7, 1])):
        with pytest.raises(MixedFields):
            grs_code(fld, alphas, vs, 2)
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


# prime and extension fields with log arrays, the largest prime on the
# uint16 path and the smallest prime above it, then one prime and one
# extension field above LOG_MAX_ORDER (entrywise multiplication)
ORACLE_FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (61, 1), (67, 1), (2, 2), (3, 2), (2, 6), (5, 5),
                 (65537, 1), (2, 17))
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
        expected = scalar_rref(fld, mat)
        assert (gen.tolist(), piv) == expected, (k, n)
        # codes keep int64 generators whatever dtype eliminated them
        assert gen.dtype == np.int64
        built = code_from_rows(fld, n, mat.astype(fld.dtype))
        given = LinearCode(fld, n, np.array(expected[0], dtype=np.int64).reshape(-1, n), piv)
        assert built == given and hash(built) == hash(given)
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


@pytest.mark.parametrize("p", sorted({p for p, t in ORACLE_FIELDS if t == 1 and p <= LOG_MAX_ORDER}))
def test_all_p_minus_one_matrices_match_scalar_oracle(p):
    # Every entry p - 1 makes every product term (p - 1)^2, so each chunk of a
    # product reaches the largest sum its exactness bound allows.  48 x 160
    # spans ten panels.  F_61 and F_67 sit on either side of the uint16 path.
    fld = field_make(p, 1)
    assert fld.dtype == (np.uint16 if p <= 61 else np.int64)
    full = np.full((48, 160), p - 1)
    # zero on the diagonal: rank 48 with every row and coefficient dense
    hollow = full.copy()
    hollow[np.arange(48), np.arange(48)] = 0
    for mat in (full, hollow):
        gen, piv = _rref(fld, mat)
        assert (gen.tolist(), piv) == scalar_rref(fld, mat)
        assert _gram(fld, mat, mat[:3]).tolist() == scalar_gram(fld, mat, mat[:3])
        assert _gram(fld, mat.T, mat.T[:3]).tolist() == scalar_gram(fld, mat.T, mat.T[:3])
