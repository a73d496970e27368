"""Linear codes over a finite field: canonical generator matrices, duals,
minimum distance by the Brouwer-Zimmermann algorithm, GRS constructors,
copies, and Galois closure.

A code is identified with its reduced row echelon generator matrix, so code
equality is matrix equality and set-level statements (involution of duals,
C = C^q, ...) are decidable by comparison.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidSubfieldOrder,
    LengthMismatch,
    MixedFields,
    OrderNotSquare,
    PreconditionViolated,
    RepeatedEvaluationPoint,
    ZeroMultiplier,
)
from .gf import COLUMN_BLOCK, GF, PANEL, factorize

DEFAULT_BUDGET = 2**24


# ---------------------------------------------------------------------------
# echelon forms and products
#
# Matrices hold element indices in integer arrays, and every primitive works
# on whole arrays through the field's elementwise arithmetic (GF.add_arr
# etc.).  Elimination and products work in the field's dtype (GF.dtype:
# uint16 for small prime fields), while codes keep int64 generators, whose
# bytes LinearCode.__hash__ reads.  Elimination steps are GF.sub_mul_arr,
# one per pivot, and matrices wider than 4 * gf.PANEL columns go by panels
# of gf.PANEL columns (the width that sets which prime fields take uint16)
# inside blocks of gf.COLUMN_BLOCK columns, with one product per panel and
# one per block.  Every product runs on BLAS over F_p (_fp_matmul), an
# extension field's on the base-p digits of its elements.


def _matmul(field: GF, a: np.ndarray, b: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
    """acc + a @ b over the field; a is (k, n), b is (n, j), acc defaults to
    zero and is not written.  The result has acc's dtype, int64 by default.
    Every field's product is _fp_matmul over its prime field."""
    out = np.dtype(np.int64) if acc is None else acc.dtype
    (k, n), j = a.shape, b.shape[1]
    if field.t == 1:
        res = np.zeros((k, j), field.dtype) if acc is None else acc.astype(field.dtype)
        return _fp_matmul(field, a, b, res).astype(out, copy=False)
    if k > j:  # the field is commutative: expand the operand with fewer rows
        return _matmul(field, b.T, a.T, None if acc is None else acc.T).T
    # a * b = sum_s b_s (a x^s) over b's digits b_s: multiplication by a is
    # the t x t matrix over F_p whose column s holds the digits of a x^s
    # (GF._x_multiples).  So acc + a @ b is a product over F_p of a's
    # (k t) x (n t) block matrix of those columns by b's (n t) x j digit
    # rows, added to acc's digit rows, and the result's digits go back to
    # indices by Horner.  a goes by rows so that one block matrix holds at
    # most 2^22 entries: a (300 x 300) . (300 x 300) product over F_2^17
    # holds 26 million at once.
    fp, t = field._prime_field(), field.t
    right = field._digits(b, fp.dtype).reshape(n * t, j)
    height = max(1, 2**22 // (n * t * t or 1))
    res = []
    for r in range(0, k, height) or [0]:  # one empty chunk when k = 0
        rows = a[r:r + height]
        h = len(rows)
        left = field._digits(field._x_multiples(rows), fp.dtype).reshape(h * t, n * t)
        d = (np.zeros((h * t, j), fp.dtype) if acc is None
             else field._digits(acc[r:r + h], fp.dtype).reshape(h * t, j))
        res.append(field._from_digits(_fp_matmul(fp, left, right, d).reshape(h, t, j)))
    # one array per chunk, joined at the end: writing each into a preallocated
    # int64 result made a (300 x 16) . (16 x 600) product over F_4 0.5 ms
    # slower in a fresh process
    return np.concatenate(res).astype(out, copy=False)


def _fp_matmul(field: GF, a: np.ndarray, b: np.ndarray, res: np.ndarray) -> np.ndarray:
    """res + a @ b over a prime field, written to res (in the field's dtype)
    and returned.

    A product over a chunk of columns is exact in floating point while every
    partial sum stays below 2^53 (float64) or 2^24 (float32).  Over a uint16
    field the chunk keeps its sums below 2^16 - p, so the product converts
    to uint16 and adds to a residue without overflow; GF.dtype makes that at
    least one panel of _rref (gf.PANEL columns).  Primes whose (p - 1)^2
    exceeds 2^53 split a into halves below 2^h, a = a_hi 2^h + a_lo, whose
    terms stay below 2^h p; primes above about 2^35, for which even those
    terms exceed 2^53, multiply Python ints.  Each chunk's sum and residue
    go to res through one scratch buffer."""
    p, n = field.p, a.shape[1]
    ftype, bound = (np.float32, 2**16 - p) if res.dtype == np.uint16 else (np.float64, 2**53)
    parts, top = [(a, 1)], p - 1
    if top * top > bound:
        h = (p.bit_length() + 1) // 2
        parts, top = [(a >> h, 2**h), (a & 2**h - 1, 1)], 2**h - 1
    step = bound // (top * (p - 1))
    if not step:
        res += ((a.astype(object) @ b.astype(object)) % p).astype(res.dtype)
        return np.remainder(res, p, out=res)
    low = np.empty_like(res)
    for part, weight in parts:
        for s in range(0, n, step):
            prod = part[:, s:s + step].astype(ftype) @ b[s:s + step].astype(ftype)
            np.copyto(low, prod, casting="unsafe")
            del prod  # held to the return, it made a 300 x 300 product over F_3 twice as slow
            if weight != 1:  # below 2^h p
                low %= p
                low *= weight
            res += low
            np.floor_divide(res, p, out=low)
            low *= p
            res -= low
    return res


def _gram(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T over the field; a is (k, n), b is (j, n)."""
    return _matmul(field, a, b.T)


def _apply_rows(field: GF, r: np.ndarray, rows: list[int], coef: np.ndarray, lo: int, hi: int):
    """Columns lo:hi of r after recorded row operations: each row becomes
    coef.T @ (the old rows `rows`), plus its old value when it is not one of
    them."""
    if lo < hi:
        old = r[rows, lo:hi]
        r[rows, lo:hi] = 0
        r[:, lo:hi] = _matmul(field, coef.T, old, r[:, lo:hi])


def _rref(field: GF, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of mat and its pivot columns.

    Gauss-Jordan by column windows.  A matrix of at most 4 * PANEL columns
    is one window.  Wider ones go by windows of PANEL columns inside blocks
    of COLUMN_BLOCK columns.  Each window is eliminated on its own columns
    while the same row operations are recorded as coefficients on its pivot
    rows, and one product with those rows updates the rest of its block.
    The block's coefficients on all its pivot rows so far are kept too: a
    window with pivot rows f and coefficients C turns the block's W into
    [W Z_f + W[:, f] C ; C], Z_f zeroing the columns f, and one product with
    W then updates every column right of the block.  Rows are never
    swapped: pivot rows are gathered in pivot order at the end, which gives
    the same (unique) reduced form, so a live row holding 1 is taken as the
    pivot when there is one.  The window is held transposed, so a pivot is
    one fused GF.sub_mul_arr over contiguous rows: the window's columns from
    the pivot's on and the coefficient columns of the pivots found so far,
    the only ones on which the pivot row can be nonzero.  That step clears
    the pivot row too, so its scaled entries are written back after it;
    they need scaling only when no live row held 1.
    """
    rows, n = mat.shape
    r = np.array(mat, dtype=field.dtype)
    live = np.ones(rows, dtype=r.dtype)  # 1 on rows not yet holding a pivot
    width, block = (n, n) if n <= 4 * PANEL else (PANEL, COLUMN_BLOCK)
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for b0 in range(0, n, block):
        b1 = min(n, b0 + block)
        coef, block_rows = None, []  # W on the block's pivot rows, when columns lie right of it
        for c0 in range(b0, b1, width):
            if len(pivots) == rows:
                break
            w = min(b1, c0 + width) - c0
            tail = c0 + w < n
            # the window transposed: its columns, then, when columns lie right
            # of it, one coefficient column per pivot row found in it, each as a row
            a = np.zeros((2 * w if tail else w, rows), dtype=r.dtype)
            a[:w] = r[:, c0:c0 + w].T
            found: list[int] = []
            for j in range(w):
                col = a[j]
                masked = col * live
                i = int((masked == 1).argmax())
                if masked[i] != 1:
                    i = int(masked.argmax())
                c = int(masked[i])
                if not c:
                    continue
                live[i] = 0
                if tail:
                    a[w + len(found), i] = 1
                found.append(i)
                end = w + len(found) if tail else w
                piv = a[j:end, i]
                if c != 1:
                    piv = field.mul_arr(piv, field.inv(c))
                step = field.sub_mul_arr(a[j:end], piv[:, None], col)
                step[:, i] = piv
                a[j:end] = step
                pivots.append(c0 + j)
                if len(pivots) == rows:
                    break
            r[:, c0:c0 + w] = a[:w].T
            pivot_rows += found
            if found and tail:
                cf = a[w:w + len(found)]
                _apply_rows(field, r, found, cf, c0 + w, b1)
                if b1 < n:
                    if coef is not None:
                        fold = coef.copy()
                        fold[:, found] = 0
                        cf = np.vstack([_matmul(field, coef[:, found], cf, fold), cf])
                    coef = cf
                    block_rows += found
        if block_rows:
            _apply_rows(field, r, block_rows, coef, b1, n)
    return r[pivot_rows].astype(np.int64), tuple(pivots)


def _rref_extend(field: GF, gen: np.ndarray, pivots, rows: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The RREF of the span of gen's rows and rows, and its pivots, where
    gen is reduced on pivots: row i is 1 on pivots[i] and 0 on the others.
    Only rows are eliminated.

    Let R be gen, P its pivots and N the new rows.  N' = N - N[:, P] R is 0
    on P, so R2, the RREF of N' on the columns outside P with pivots P2, is
    reduced on P as well, and R' = R - R[:, P2] R2 clears P2 from R.  The
    rows of R' and R2, sorted by pivot, are the RREF."""
    n = rows.shape[1]
    p = list(pivots)
    rest = np.delete(np.arange(n), p)  # the columns outside P
    r_rest = gen[:, rest]
    r2, q = _rref(field, _matmul(field, field.neg_arr(rows[:, p]), r_rest, rows[:, rest]))
    p2 = rest[list(q)]
    if len(p2):
        r_rest = _matmul(field, field.neg_arr(gen[:, p2]), r2, r_rest)
    both = np.concatenate([p, p2]).astype(np.intp)
    order = np.argsort(both)
    at = np.empty_like(order)
    at[order] = np.arange(len(both))  # the row each pivot's row takes
    out = np.zeros((len(both), n), dtype=np.int64)
    out[at[:len(p)], p] = 1
    out[np.ix_(at[:len(p)], rest)] = r_rest
    out[np.ix_(at[len(p):], rest)] = r2
    return out, tuple(int(j) for j in both[order])


# ---------------------------------------------------------------------------
# the code type


@dataclass(frozen=True)
class LinearCode:
    """[n, k] code given by its RREF generator matrix."""

    field: GF
    n: int
    gen: np.ndarray
    pivots: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.gen.shape == other.gen.shape
            and bool(np.array_equal(self.gen, other.gen))
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.gen.tobytes()))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over {self.field!r})"

    def params(self) -> tuple[int, int]:
        return (self.n, self.k)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n,
            "rows": [[int(v) for v in row] for row in self.gen],
        }


def _indices(field: GF, values) -> list[int]:
    """values as element indices of field; MixedFields for an entry that is
    not an integer in [0, |F|), so floats are never truncated and booleans
    (JSON true) never read as 1."""
    values = list(values)
    if any(isinstance(v, bool) for v in values):
        raise MixedFields(f"boolean element index for {field!r}")
    try:
        out = [operator.index(v) for v in values]
    except TypeError:
        raise MixedFields(f"non-integral element index for {field!r}") from None
    for v in out:
        if not 0 <= v < field.order:
            raise MixedFields(f"element index {v} out of range for {field!r}")
    return out


def code_from_rows(field: GF, n: int, rows) -> LinearCode:
    """The code spanned by `rows`: an integer array, or rows of integers,
    of element indices."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.ndim == 2:
        if rows.shape[1] != n:
            raise LengthMismatch(f"row length {rows.shape[1]} != {n}")
        mat = rows.astype(np.int64, copy=False)
        bad = (mat < 0) | (mat >= field.order)
        if bad.any():
            raise MixedFields(f"element index {mat[bad][0]} out of range for {field!r}")
    else:
        vals = []
        for row in rows:
            row = list(row)
            if len(row) != n:
                raise LengthMismatch(f"row length {len(row)} != {n}")
            vals.append(_indices(field, row))
        mat = np.array(vals, dtype=np.int64).reshape(len(vals), n)
    gen, pivots = _rref(field, mat)
    return LinearCode(field, n, gen, pivots)


def full_space(field: GF, n: int) -> LinearCode:
    return LinearCode(field, n, np.eye(n, dtype=np.int64), tuple(range(n)))


def zero_code(field: GF, n: int) -> LinearCode:
    return LinearCode(field, n, np.zeros((0, n), dtype=np.int64), ())


# ---------------------------------------------------------------------------
# duals


def _parity_rows(c: LinearCode) -> np.ndarray:
    """Rows -A^T | I on the pivot / free columns of the RREF generator I | A:
    a basis of the Euclidean dual, not reduced."""
    field, n, g, pivots = c.field, c.n, c.gen, list(c.pivots)
    free = np.delete(np.arange(n), pivots)
    rows = np.zeros((free.size, n), dtype=np.int64)
    rows[np.arange(free.size), free] = 1
    rows[:, pivots] = field.neg_arr(g[:, free].T)
    return rows


def dual_euclidean(c: LinearCode) -> LinearCode:
    """The Euclidean dual in RREF: the reduced parity rows."""
    gen, pivots = _rref(c.field, _parity_rows(c))
    return LinearCode(c.field, c.n, gen, pivots)


def conjugation_base(field: GF) -> int:
    """r with r^2 = |F|; raises OrderNotSquare when the order is not a square."""
    if field.t % 2 != 0:
        raise OrderNotSquare(f"{field!r} has no Hermitian structure")
    return field.p ** (field.t // 2)


def dual_hermitian(c: LinearCode) -> LinearCode:
    return dual_euclidean(code_power_q(c, conjugation_base(c.field)))


def _in_span(field: GF, x: np.ndarray, c: LinearCode) -> bool:
    """Whether every row of x lies in c; x may be any rows, reduced or not.

    c's generator is the identity on its pivots, so a row x lies in c
    exactly when x equals x[pivots] @ G."""
    return bool(np.array_equal(_matmul(field, x[:, list(c.pivots)], c.gen), x))


def subspace_leq(c1: LinearCode, c2: LinearCode) -> bool:
    if c1.field != c2.field or c1.n != c2.n:
        raise LengthMismatch("codes live in different ambient spaces")
    return c1.k <= c2.k and _in_span(c1.field, c1.gen, c2)


class DualityFlags:
    """Self-orthogonal / dual-containing / self-dual flags, both inner
    products, each computed when first read and then kept.

    Every flag comes from the RREF generator G = I | A, with no dual built.
    G G^T = I + A A^T, so C is self-orthogonal when that vanishes.  The dual
    is spanned by the parity rows -A^T | I, which lie in C exactly when
    -A^T A = I on the free columns, i.e. I + A^T A = 0.  The Hermitian
    flags are the same two tests with the conjugate A^r (r^2 = |F|) on one
    side: Frobenius fixes 0 and 1, so C^r has the RREF generator I | A^r.
    A self-dual flag is its self-orthogonal flag when 2k = n.  Hermitian
    flags are None when the field order is not a perfect square.
    """

    def __init__(self, c: LinearCode):
        self._code = c
        self._hermitian = c.field.t % 2 == 0
        self._half_rate = 2 * c.k == c.n

    def __repr__(self) -> str:
        return f"DualityFlags({self.to_json()})"

    @cached_property
    def _free(self) -> np.ndarray:
        """A: the generator's free columns."""
        c = self._code
        return c.gen[:, np.delete(np.arange(c.n), c.pivots)]

    @cached_property
    def _conj(self) -> np.ndarray:
        """A^r, read only over a field of square order."""
        field = self._code.field
        return field.pow_arr(self._free, conjugation_base(field))

    def _identity_plus_vanishes(self, x: np.ndarray, y: np.ndarray) -> bool:
        field = self._code.field
        prod = _matmul(field, x, y)
        diag = np.arange(prod.shape[0])
        prod[diag, diag] = field.add_arr(prod[diag, diag], 1)
        return not prod.any()

    @cached_property
    def eso(self) -> bool:
        return self._identity_plus_vanishes(self._free, self._free.T)

    @cached_property
    def edc(self) -> bool:
        return self._identity_plus_vanishes(self._free.T, self._free)

    @cached_property
    def esd(self) -> bool:
        return self._half_rate and self.eso

    @cached_property
    def hso(self) -> bool | None:
        return self._identity_plus_vanishes(self._free, self._conj.T) if self._hermitian else None

    @cached_property
    def hdc(self) -> bool | None:
        return self._identity_plus_vanishes(self._conj.T, self._free) if self._hermitian else None

    @cached_property
    def hsd(self) -> bool | None:
        return (self._half_rate and self.hso) if self._hermitian else None

    def to_json(self) -> dict:
        return {
            "ESO": self.eso,
            "EDC": self.edc,
            "ESD": self.esd,
            "HSO": self.hso,
            "HDC": self.hdc,
            "HSD": self.hsd,
        }


def duality_class(c: LinearCode) -> DualityFlags:
    """The six duality flags of c; each is computed when it is read."""
    return DualityFlags(c)


# ---------------------------------------------------------------------------
# constructors and combinators


def grs_code(field: GF, alphas, vs, k: int) -> LinearCode:
    """Generalized Reed-Solomon code: rows v_j * alpha_j^i, i < k. MDS."""
    alphas, vs = _indices(field, alphas), _indices(field, vs)
    n = len(alphas)
    if len(set(alphas)) != n:
        raise RepeatedEvaluationPoint("GRS evaluation points must be distinct")
    if any(v == 0 for v in vs):
        raise ZeroMultiplier("GRS column multipliers must be nonzero")
    if len(vs) != n or not 0 <= k <= n:
        raise DimensionMismatch(f"bad GRS shape n={n}, k={k}")
    rows = []
    for i in range(k):
        rows.append([field.mul(v, field.pow_(a, i)) for a, v in zip(alphas, vs)])
    return code_from_rows(field, n, rows)


def juxtapose(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """[G1 | G2] on the canonical generator matrices; needs equal dimensions.
    It is already in RREF, with G1's pivots."""
    if c1.field != c2.field:
        raise MixedFields("juxtapose requires a common field")
    if c1.k != c2.k:
        raise DimensionMismatch(f"dimension mismatch {c1.k} != {c2.k}")
    return LinearCode(c1.field, c1.n + c2.n, np.hstack([c1.gen, c2.gen]), c1.pivots)


def concat_copies(c: LinearCode, t: int) -> LinearCode:
    """t side-by-side copies [G | G | ... | G]; scales length and distance by t.
    It is already in RREF, with G's pivots."""
    if t < 1:
        raise DimensionMismatch("need at least one copy")
    return LinearCode(c.field, c.n * t, np.hstack([c.gen] * t), c.pivots)


def code_power_q(c: LinearCode, r: int) -> LinearCode:
    """Entrywise Frobenius power x -> x^r.  Frobenius fixes 0 and 1, so the
    image of the RREF generator is in RREF on the same pivots."""
    _check_conj_base(c.field, r)
    return LinearCode(c.field, c.n, c.field.pow_arr(c.gen, r), c.pivots)


def _check_conj_base(field: GF, r: int):
    fac = factorize(r)
    if len(fac) != 1 or next(iter(fac)) != field.p or field.t % fac[field.p] != 0:
        raise InvalidSubfieldOrder(f"{r} is not a subfield order of {field!r}")


def galois_closure(c: LinearCode, r: int) -> LinearCode:
    """Span of the full Frobenius orbit of the generators."""
    _check_conj_base(c.field, r)
    cur = c
    while True:
        powered = c.field.pow_arr(cur.gen, r)
        rows = np.vstack([cur.gen, powered])
        gen, piv = _rref(c.field, rows)
        nxt = LinearCode(c.field, c.n, gen, piv)
        if nxt == cur:
            return cur
        cur = nxt


def is_galois_closed(c: LinearCode, r: int) -> bool:
    return code_power_q(c, r) == c


# ---------------------------------------------------------------------------
# minimum distance


@dataclass(frozen=True)
class DistanceReport:
    """Result of a distance-engine run of at most `budget` codewords.

    mode "exact" means the engine certified d_exact = d_lower = d_upper within
    the budget; "lower-upper" reports the certified interval [d_lower,
    d_upper] reached when the budget ran out first (d_upper None when no
    codeword was seen).  The zero code gets the undefined sentinel n + 1 so
    it never poisons minima, and d_lower None.
    """

    mode: str
    d_exact: int | None
    d_upper: int | None
    enumerated: int
    budget: int
    zero_code: bool = False
    d_lower: int | None = None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "d_exact": self.d_exact,
            "d_lower": self.d_lower,
            "d_upper": self.d_upper,
            "enumerated": self.enumerated,
            "budget": self.budget,
            "zero_code": self.zero_code,
        }


_BLOCK = 4096  # most codewords built and scored by one array step


def _information_sets(field: GF, gen: np.ndarray, pivots):
    """Systematic generators Gamma_j of the code with r_j, their number of
    pivots on columns that no earlier Gamma has a pivot on, yielded one at a
    time, so a set the caller never asks for costs no elimination.

    gen must be in RREF with pivot columns `pivots`, so Gamma_0 is gen itself
    with r_0 = k.  Each later Gamma_j is the RREF of gen with the unused
    columns put first, read back in the original column order, so it is the
    identity on its pivot columns.  The sets stop when gen is zero on the
    unused columns: they have rank 0, and no elimination is needed to see it.
    """
    used = np.zeros(gen.shape[1], dtype=bool)
    used[list(pivots)] = True
    yield gen, len(pivots)
    while True:
        fresh = np.flatnonzero(~used)
        if not gen[:, fresh].any():
            return
        order = np.concatenate([fresh, np.flatnonzero(used)])
        g, piv = _rref(field, gen[:, order])
        new = [c for c in piv if c < fresh.size]
        gamma = np.empty_like(g)
        gamma[:, order] = g
        used[order[new]] = True
        yield gamma, len(new)


def _stage_blocks(field: GF, k: int, w: int):
    """The messages of weight w on k rows, one per scalar class, in blocks of
    at most _BLOCK codewords: the stage's visit order, the same for every
    information set.

    Messages run through supports i_0 < ... < i_{w-1} in lexicographic order
    and, within a support, through the coefficients of i_1, ..., i_{w-1} (i_0
    takes 1) as base-(q - 1) digits, i_1's the least significant.  A block is
    (heads, parent, tail, neg_coef, fixed), and its codeword (t, v, h), in
    that order, is head sum h of the rows heads[parent[t]], plus the v-th
    coefficient times row tail[t], plus the fixed rows.  The head sums of
    rows i_0 < ... < i_{c-1} are all their combinations with leading
    coefficient 1, in digit order; neg_coef holds the tail's coefficients
    negated; fixed is None or the rows above the tail with their negated
    coefficients.

    When a support's (q - 1)^(w - 1) codewords fit a block, the tail is
    position w - 1 and a block holds consecutive heads, each extended by
    every later row.  Otherwise a block holds one support: the tail is the
    lowest position c whose head sums and multiples no longer fit together,
    the digits above c are fixed, and a run of c's digits varies.
    """
    q = field.order
    patterns = (q - 1) ** (w - 1)  # codewords of one support
    if patterns <= _BLOCK:
        c = w - 1
        neg_coef = field.neg_arr(np.arange(1, q if c else 2, dtype=field.dtype))
        per_block = _BLOCK // patterns  # supports
        prefixes = itertools.combinations(range(k - 1), c)  # heads with a later row
        while chunk := list(itertools.islice(prefixes, per_block)):
            heads = np.fromiter(itertools.chain.from_iterable(chunk), np.int64,
                                len(chunk) * c).reshape(len(chunk), c)
            last = heads[:, -1] if c else np.full(len(chunk), -1)
            count = k - 1 - last  # later rows of each head
            parent = np.repeat(np.arange(len(chunk)), count)
            tail = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count - last - 1, count)
            for s in range(0, len(parent), per_block):
                par = parent[s:s + per_block]
                yield heads[par[0]:par[-1] + 1], par - par[0], tail[s:s + per_block], neg_coef, None
        return
    c = 1
    while (q - 1) ** c <= _BLOCK:  # stops by w - 1, as (q - 1)^(w - 1) > _BLOCK
        c += 1
    run = _BLOCK // (q - 1) ** (c - 1)  # digits of position c per block
    one_head = np.zeros(1, dtype=np.int64)
    for supp in itertools.combinations(range(k), w):
        heads, tail = np.array([supp[:c]]), np.array([supp[c]])
        above = np.array(supp[:c:-1], dtype=np.int64)  # rows w - 1, ..., c + 1
        for digits in itertools.product(range(1, q), repeat=w - 1 - c):  # most significant first
            fixed = above, field.neg_arr(np.array(digits, dtype=field.dtype))
            for v in range(1, q, run):
                neg_coef = field.neg_arr(np.arange(v, min(q, v + run), dtype=field.dtype))
                yield heads, one_head, tail, neg_coef, fixed


@lru_cache(maxsize=256)
def _one_block_stage(field: GF, k: int, w: int) -> tuple:
    """_stage_blocks(field, k, w) as a tuple, for a stage of at most _BLOCK
    codewords; it depends on nothing else, so every engine run shares it.
    Its arrays are read-only, as every caller gets the same ones."""
    blocks = tuple(_stage_blocks(field, k, w))
    for heads, parent, tail, neg_coef, _ in blocks:
        for a in (heads, parent, tail, neg_coef):
            a.flags.writeable = False
    return blocks


def _block_zeros(field: GF, rows: np.ndarray, block) -> np.ndarray:
    """Which entries of each codeword of the block are zero, one row per
    codeword in block order.

    The head sums grow one position at a time: every nonzero multiple of the
    next row is added to every sum so far, as the more significant digit.  A
    codeword is then zero where its head sum equals the negated rest, so each
    codeword costs one comparison.  Every sum adds two reduced elements, so
    it stays below 2p < 2^63 (field orders are below 2^62) and int64 holds it
    for every prime.
    """
    heads, parent, tail, neg_coef, fixed = block
    m, c = heads.shape
    width = rows.shape[1]

    def times(coef, x):
        return x if field.order == 2 else field.mul_arr(coef, x)  # over F_2 every coefficient is 1

    if c:
        head = rows[heads[:, 0], None]
        coef = np.arange(1, field.order, dtype=rows.dtype)[:, None, None] if c > 1 else None
        for s in range(1, c):
            head = field.add_arr(head[:, None], times(coef, rows[heads[:, s], None, None]))
            head = head.reshape(m, -1, width)
    else:
        head = np.zeros((m, 1, width), dtype=rows.dtype)
    rest = times(neg_coef[:, None], rows[tail, None])
    if fixed is not None:
        for row, cf in zip(*fixed):
            rest = field.add_arr(rest, times(cf, rows[row]))
    return (head[parent, None] == rest[:, :, None]).reshape(-1, width)


def _min_weight(field: GF, gen: np.ndarray, pivots, syn: np.ndarray | None,
                budget: int) -> tuple[int, int, int]:
    """Brouwer-Zimmermann minimum weight of the code whose RREF generator is
    gen (k >= 1 rows) with pivot columns `pivots`, or of its codewords not
    orthogonal to every row of syn.  Returns (best, lower, visited): best is
    the least weight seen (n + 1 if none qualified), lower <= min(best, d) is
    the certified lower bound, and the result is certified exactly when
    lower == best.

    Stage (w, j) visits every message of weight w on Gamma_j, one per scalar
    class.  A codeword none of the finished stages produced has message
    weight above w_j on every Gamma_j, so it carries at least
    w_j + 1 - (k - r_j) nonzeros on the r_j fresh pivot columns of each
    Gamma_j, which are disjoint; the engine stops when that sum reaches
    best, or when one Gamma_j has had every message.  With syn, codewords
    with a zero syndrome are skipped: the bound holds for every codeword
    not visited, so it holds for the difference set as well.  The engine
    stops after at most `budget` codewords.

    Gamma_j is built when stage 1 first reaches it.  Until then it adds
    [r_j = k] to the sum, and at most R // k of the sets not yet built have
    r_j = k, R being the columns no built set has a pivot on.  So after each
    set of stage 1 the engine stops when the built sets' sum reaches best,
    goes on when that sum plus R // k stays below it, and otherwise, as at
    a budget cut, builds every set and takes the exact sum: each decision is
    the one the exact sum gives.
    """
    k, n = gen.shape
    q = field.order
    pending = _information_sets(field, gen, pivots)
    sets = []  # each Gamma_j built so far with its syndromes alongside, in the field's dtype
    done = []  # w_j: message weight enumerated in full on Gamma_j

    def build() -> bool:
        """Append the next set; False when there is none."""
        nxt = next(pending, None)
        if nxt is None:
            return False
        g, r = nxt
        rows = g if syn is None else np.hstack([g, _gram(field, g, syn)])
        sets.append((rows.astype(field.dtype), r))
        done.append(0)
        return True

    def bound(exact: bool) -> int:
        """The sum over the built sets, or over every set when exact."""
        while exact and build():
            pass
        return sum(max(0, wj + 1 - (k - rj)) for wj, (_, rj) in zip(done, sets))

    best, visited = n + 1, 0
    for w in range(1, k + 1):
        # a stage of one block is built once and kept for every later run; a
        # larger one is streamed again per set, so no stage is ever held whole
        one = math.comb(k, w) * (q - 1) ** (w - 1) <= _BLOCK
        kept = _one_block_stage(field, k, w) if one else None
        j = 0
        while j < len(sets) or build():
            rows = sets[j][0]
            for block in kept or _stage_blocks(field, k, w):
                zero = _block_zeros(field, rows, block)
                cut = visited + len(zero) > budget
                if cut:  # the budget ends inside this stage
                    zero = zero[:budget - visited]
                visited += len(zero)
                wts = n - np.count_nonzero(zero[:, :n], axis=1)
                if syn is not None:
                    wts = wts[~zero[:, n:].all(axis=1)]
                if wts.size:
                    best = min(best, int(wts.min()))
                if cut:
                    return best, min(best, bound(exact=True)), visited
            done[j] = w
            j += 1
            if w == k:
                return best, best, visited
            lower = bound(exact=False)
            if lower < best and lower + (n - sum(r for _, r in sets)) // k >= best:
                lower = bound(exact=True)  # the sets not yet built may decide
            if lower >= best:
                return best, best, visited
    raise AssertionError("unreachable: the last stage enumerates every message")  # pragma: no cover


def _check_budget(budget: int):
    if budget < 0:
        raise PreconditionViolated(f"the codeword budget must be at least 0, got {budget}")


def min_distance(c: LinearCode, budget: int = DEFAULT_BUDGET,
                 mode: str = "exact") -> DistanceReport:
    """Minimum distance by the Brouwer-Zimmermann engine, visiting at most
    `budget` codewords.

    A run that certifies d within the budget is reported as "exact" in either
    mode.  Otherwise mode "bound" returns the certified interval
    [d_lower, d_upper] and mode "exact" raises BudgetExceeded.
    """
    if mode not in ("exact", "bound"):
        raise PreconditionViolated(f"unknown distance mode {mode!r}")
    _check_budget(budget)
    n = c.n
    if c.k == 0:
        return DistanceReport("exact", n + 1, None, 0, budget, zero_code=True)
    best, lower, visited = _min_weight(c.field, c.gen, c.pivots, None, budget)
    if lower == best:
        return DistanceReport("exact", best, best, visited, budget, d_lower=best)
    if mode == "exact":
        raise BudgetExceeded(
            f"the distance is in [{lower}, {best}] after the budget of {budget} codewords")
    return DistanceReport("lower-upper", None, best if best <= n else None, visited, budget,
                          d_lower=lower)


def min_weight_outside(c1: LinearCode, c2: LinearCode,
                       budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Exact min weight over c1 \\ c2^perp-euclidean, i.e. codewords of c1 not
    orthogonal to all of c2, certified within `budget` codewords of c1 or
    BudgetExceeded.  Returns (weight, codewords visited); weight n + 1 when
    the difference is empty."""
    if c1.field != c2.field or c1.n != c2.n:
        raise LengthMismatch("codes live in different ambient spaces")
    _check_budget(budget)
    if c1.k == 0 or c2.k == 0:
        return c1.n + 1, 0  # empty difference: c2^perp is everything
    best, lower, visited = _min_weight(c1.field, c1.gen, c1.pivots, c2.gen, budget)
    if lower < best:
        raise BudgetExceeded(
            f"the weight is in [{lower}, {best}] after the budget of {budget} codewords")
    return best, visited
