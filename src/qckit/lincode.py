"""Linear codes over a finite field: canonical generator matrices, duals,
minimum distance by the Brouwer-Zimmermann algorithm, GRS constructors,
copies, and Galois closure.

A code is identified with its reduced row echelon generator matrix, so code
equality is matrix equality and set-level statements (involution of duals,
C = C^q, ...) are decidable by comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetTooSmallForExact,
    DimensionMismatch,
    EnumerationIncomplete,
    InvalidSubfieldOrder,
    LengthMismatch,
    MixedFields,
    OrderNotSquare,
    RepeatedEvaluationPoint,
    ZeroMultiplier,
)
from .gf import GF, LOG_MAX_ORDER, Felt, factorize

DEFAULT_BUDGET = 2**24


# ---------------------------------------------------------------------------
# echelon forms and products
#
# Matrices hold element indices in int64 arrays, and every primitive works on
# whole arrays through the field's elementwise arithmetic (GF.add_arr etc.).

_PANEL = 16  # columns eliminated per panel before one product updates the rest


def _matmul(field: GF, a: np.ndarray, b: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
    """acc + a @ b over the field; a is (k, n), b is (n, j), acc defaults to zero."""
    if acc is None:
        acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    n = a.shape[1]
    if field.t == 1 and field.order <= LOG_MAX_ORDER:
        # float64 products are exact while every partial sum stays below 2^53
        p = field.p
        step = 2**53 // (p - 1) ** 2
        for s in range(0, n, step):
            prod = a[:, s:s + step].astype(np.float64) @ b[s:s + step].astype(np.float64)
            acc = (acc + prod.astype(np.int64)) % p
        return acc
    for col in range(n):
        acc = field.add_arr(acc, field.mul_arr(a[:, col, None], b[col]))
    return acc


def _gram(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T over the field; a is (k, n), b is (j, n)."""
    return _matmul(field, a, b.T)


def _rref(field: GF, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of mat and its pivot columns.

    Gauss-Jordan by column panels.  A panel is eliminated on its own columns
    while the same row operations are recorded as coefficients on the
    panel's pivot rows; one product with those rows then updates every
    column right of the panel.  Rows are never swapped: pivot rows are
    gathered in pivot order at the end, which gives the same (unique)
    reduced form.  A pivot row is scaled only when its pivot is not 1, and
    it updates only the rows with a nonzero entry in its column.
    """
    rows, n = mat.shape
    r = np.array(mat, dtype=np.int64)
    free = np.ones(rows, dtype=bool)  # rows not yet holding a pivot
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for c0 in range(0, n, _PANEL):
        if len(pivots) == rows:
            break
        w = min(n, c0 + _PANEL) - c0
        # panel columns, then one coefficient column per pivot row found in it
        a = np.zeros((rows, 2 * w), dtype=np.int64)
        a[:, :w] = r[:, c0:c0 + w]
        found: list[int] = []
        for j in range(w):
            col = a[:, j]
            nonzero = col != 0
            i = int((nonzero & free).argmax())
            if not (nonzero[i] and free[i]):
                continue
            a[i, w + len(found)] = 1
            if col[i] != 1:
                a[i, j:] = field.mul_arr(a[i, j:], field.inv(int(col[i])))
            nonzero[i] = False
            others = nonzero.nonzero()[0]  # rows the pivot row must clear
            if others.size:
                factors = field.neg_arr(col[others])
                a[others, j:] = field.add_arr(a[others, j:], field.mul_arr(factors[:, None], a[i, j:]))
            free[i] = False
            found.append(i)
            pivots.append(c0 + j)
        r[:, c0:c0 + w] = a[:, :w]
        if found and c0 + w < n:
            # rows become coef @ (old pivot rows), plus their old value off the pivot rows
            old = r[found, c0 + w:]
            r[found, c0 + w:] = 0
            r[:, c0 + w:] = _matmul(field, a[:, w:w + len(found)], old, r[:, c0 + w:])
        pivot_rows += found
    return r[pivot_rows], tuple(pivots)


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

    def is_zero(self) -> bool:
        return self.k == 0

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


def code_from_rows(field: GF, n: int, rows) -> LinearCode:
    """The code spanned by `rows`: an integer array of element indices, or
    rows of element indices and Felt values."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.ndim == 2:
        if rows.shape[1] != n:
            raise LengthMismatch(f"row length {rows.shape[1]} != {n}")
        mat = rows.astype(np.int64)
    else:
        vals = []
        for row in rows:
            row = list(row)
            if len(row) != n:
                raise LengthMismatch(f"row length {len(row)} != {n}")
            out = []
            for v in row:
                if isinstance(v, Felt):
                    if v.field != field:
                        raise MixedFields(f"row entry from {v.field!r}, expected {field!r}")
                    v = v.val
                out.append(int(v))
            vals.append(out)
        try:
            mat = np.array(vals, dtype=np.int64).reshape(len(vals), n)
        except OverflowError:
            raise MixedFields(f"element index beyond int64 for {field!r}") from None
    bad = (mat < 0) | (mat >= field.order)
    if bad.any():
        raise MixedFields(f"element index {mat[bad][0]} out of range for {field!r}")
    gen, pivots = _rref(field, mat)
    return LinearCode(field, n, gen, pivots)


def full_space(field: GF, n: int) -> LinearCode:
    return LinearCode(field, n, np.eye(n, dtype=np.int64), tuple(range(n)))


def zero_code(field: GF, n: int) -> LinearCode:
    return LinearCode(field, n, np.zeros((0, n), dtype=np.int64), ())


# ---------------------------------------------------------------------------
# duals


def dual_euclidean(c: LinearCode) -> LinearCode:
    """Parity rows -A^T | I from the RREF generator, recanonicalized."""
    field, n, g, pivots = c.field, c.n, c.gen, list(c.pivots)
    free = np.setdiff1d(np.arange(n), pivots)
    rows = np.zeros((free.size, n), dtype=np.int64)
    rows[np.arange(free.size), free] = 1
    rows[:, pivots] = field.neg_arr(g[:, free].T)
    gen, piv = _rref(field, rows)
    return LinearCode(field, n, gen, piv)


def conjugation_base(field: GF) -> int:
    """r with r^2 = |F|; raises OrderNotSquare when the order is not a square."""
    if field.t % 2 != 0:
        raise OrderNotSquare(f"{field!r} has no Hermitian structure")
    return field.p ** (field.t // 2)


def dual_hermitian(c: LinearCode) -> LinearCode:
    r = conjugation_base(c.field)
    conj = c.field.pow_arr(c.gen, r)
    gen, piv = _rref(c.field, conj)
    return dual_euclidean(LinearCode(c.field, c.n, gen, piv))


def subspace_leq(c1: LinearCode, c2: LinearCode) -> bool:
    if c1.field != c2.field or c1.n != c2.n:
        raise LengthMismatch("codes live in different ambient spaces")
    if c1.k == 0:
        return True
    if c1.k > c2.k:
        return False
    # c2's generator is the identity on its pivots, so a row x lies in c2
    # exactly when x equals x[pivots] @ G2
    spanned = _matmul(c1.field, c1.gen[:, list(c2.pivots)], c2.gen)
    return bool(np.array_equal(spanned, c1.gen))


@dataclass(frozen=True)
class DualityFlags:
    """Self-orthogonal / dual-containing / self-dual flags, both inner products.

    Hermitian flags are None when the field order is not a perfect square.
    """

    eso: bool
    edc: bool
    esd: bool
    hso: bool | None
    hdc: bool | None
    hsd: bool | None

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
    field = c.field
    eso = not _gram(field, c.gen, c.gen).any()
    edc = subspace_leq(dual_euclidean(c), c)
    esd = eso and 2 * c.k == c.n
    hso = hdc = hsd = None
    if field.t % 2 == 0:
        r = conjugation_base(field)
        conj = field.pow_arr(c.gen, r)
        hso = not _gram(field, c.gen, conj).any()
        hdc = subspace_leq(dual_hermitian(c), c)
        hsd = hso and 2 * c.k == c.n
    return DualityFlags(eso, edc, esd, hso, hdc, hsd)


# ---------------------------------------------------------------------------
# constructors and combinators


def grs_code(field: GF, alphas, vs, k: int) -> LinearCode:
    """Generalized Reed-Solomon code: rows v_j * alpha_j^i, i < k. MDS."""
    alphas = [a.val if isinstance(a, Felt) else int(a) for a in alphas]
    vs = [v.val if isinstance(v, Felt) else int(v) for v in vs]
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
    """[G1 | G2] on the canonical generator matrices; needs equal dimensions."""
    if c1.field != c2.field:
        raise MixedFields("juxtapose requires a common field")
    if c1.k != c2.k:
        raise DimensionMismatch(f"dimension mismatch {c1.k} != {c2.k}")
    rows = np.hstack([c1.gen, c2.gen])
    gen, piv = _rref(c1.field, rows)
    return LinearCode(c1.field, c1.n + c2.n, gen, piv)


def concat_copies(c: LinearCode, t: int) -> LinearCode:
    """t side-by-side copies [G | G | ... | G]; scales length and distance by t."""
    if t < 1:
        raise DimensionMismatch("need at least one copy")
    rows = np.hstack([c.gen] * t)
    gen, piv = _rref(c.field, rows)
    return LinearCode(c.field, c.n * t, gen, piv)


def code_power_q(c: LinearCode, r: int) -> LinearCode:
    """Entrywise Frobenius power x -> x^r, recanonicalized."""
    _check_conj_base(c.field, r)
    powered = c.field.pow_arr(c.gen, r)
    gen, piv = _rref(c.field, powered)
    return LinearCode(c.field, c.n, gen, piv)


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
    """Result of a weight enumeration.

    mode "exact" certifies d_exact over all nonzero codewords; "lower-upper"
    reports the certified interval [d_lower, d_upper] reached within the
    enumeration budget, and d_lower == d_upper when the engine certified the
    distance before the budget ran out.  The zero code gets the undefined
    sentinel n + 1 so it never poisons minima, and d_lower None.
    """

    mode: str
    d_exact: int | None
    d_upper: int | None
    enumerated: int
    budget: int
    zero_code: bool = False
    d_lower: int | None = None

    @property
    def value(self) -> int:
        return self.d_exact if self.d_exact is not None else self.d_upper

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


def _information_sets(field: GF, gen: np.ndarray, pivots) -> list[tuple[np.ndarray, int]]:
    """Systematic generators Gamma_j of the code with r_j, their number of
    pivots on columns that no earlier Gamma has a pivot on.

    gen must be in RREF with pivot columns `pivots`, so Gamma_0 is gen itself
    with r_0 = k.  Each later Gamma_j is the RREF of gen with the unused
    columns put first, read back in the original column order, so it is the
    identity on its pivot columns.  The sets stop when gen is zero on the
    unused columns: they have rank 0, and no elimination is needed to see it.
    """
    used = np.zeros(gen.shape[1], dtype=bool)
    used[list(pivots)] = True
    sets = [(gen, len(pivots))]
    while True:
        fresh = np.flatnonzero(~used)
        if not gen[:, fresh].any():
            return sets
        order = np.concatenate([fresh, np.flatnonzero(used)])
        g, piv = _rref(field, gen[:, order])
        new = [c for c in piv if c < fresh.size]
        gamma = np.empty_like(g)
        gamma[:, order] = g
        used[order[new]] = True
        sets.append((gamma, len(new)))


def _message_blocks(k: int, w: int, q: int):
    """Messages of weight w whose first nonzero coefficient is 1, one per
    scalar class, as (support, coefficient) arrays of at most _BLOCK rows."""
    patterns = (q - 1) ** (w - 1)  # coefficients after the leading 1
    per_block = max(1, _BLOCK // patterns)
    supports = itertools.combinations(range(k), w)
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(supports, per_block))
        supp = np.fromiter(chunk, dtype=np.int64).reshape(-1, w)
        if not len(supp):
            return
        for start in range(0, patterns, _BLOCK):
            idx = np.arange(start, min(patterns, start + _BLOCK), dtype=np.int64)
            coef = np.ones((idx.size, w), dtype=np.int64)
            for s in range(1, w):
                coef[:, s] = idx % (q - 1) + 1  # base-(q-1) digits are the nonzero elements
                idx //= q - 1
            yield np.repeat(supp, len(coef), axis=0), np.tile(coef, (len(supp), 1))


def _combine(field: GF, rows: np.ndarray, supp: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Row i of the result is sum_s coef[i, s] * rows[supp[i, s]]."""
    out = rows[supp[:, 0]]  # leading coefficient 1
    w, p = supp.shape[1], field.p
    if field.t == 1 and p > 2 and w * (p - 1) ** 2 < 2**63:
        # the int64 sum is exact: its w terms are each at most (p - 1)^2, so
        # one reduction mod p finishes the block
        for s in range(1, w):
            out += coef[:, s, None] * rows[supp[:, s]]
        return out % p
    for s in range(1, w):
        term = rows[supp[:, s]]
        if field.order > 2:  # over F_2 every coefficient is 1
            term = field.mul_arr(coef[:, s, None], term)
        out = field.add_arr(out, term)
    return out


def _min_weight(field: GF, gen: np.ndarray, pivots, syn: np.ndarray | None,
                budget: int | None) -> tuple[int, int, int]:
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
    not visited, so it holds for the difference set as well.  A budget stops
    the engine after exactly that many codewords; None runs to the end.
    """
    k, n = gen.shape
    q = field.order
    sets = [(g, r, None if syn is None else _gram(field, g, syn))
            for g, r in _information_sets(field, gen, pivots)]
    done = [0] * len(sets)  # w_j: message weight enumerated in full on Gamma_j

    def bound() -> int:
        return sum(max(0, wj + 1 - (k - rj)) for wj, (_, rj, _) in zip(done, sets))

    best, lower, visited = n + 1, bound(), 0
    for w in range(1, k + 1):
        for j, (g, _, s) in enumerate(sets):
            for supp, coef in _message_blocks(k, w, q):
                cut = budget is not None and visited + len(supp) > budget
                if cut:  # the budget ends inside this stage
                    supp, coef = supp[:budget - visited], coef[:budget - visited]
                visited += len(supp)
                wts = np.count_nonzero(_combine(field, g, supp, coef), axis=1)
                if s is not None:
                    wts = wts[_combine(field, s, supp, coef).any(axis=1)]
                if wts.size:
                    best = min(best, int(wts.min()))
                if cut:
                    return best, min(best, lower), visited
            done[j] = w
            lower = bound()
            if w == k or lower >= best:
                return best, best, visited
    raise AssertionError("unreachable: the last stage enumerates every message")  # pragma: no cover


def min_distance(c: LinearCode, budget: int = DEFAULT_BUDGET, mode: str = "auto",
                 fallback: bool = False) -> DistanceReport:
    """Minimum distance by the Brouwer-Zimmermann engine: exact, or a
    certified interval [d_lower, d_upper] within `budget` codewords.

    Exact mode needs q^k <= budget; with fallback=True an over-budget request
    degrades to bound mode instead of raising.
    """
    field, n, k = c.field, c.n, c.k
    q = field.order
    if k == 0:
        return DistanceReport("exact", n + 1, None, 0, budget, zero_code=True)
    exact_possible = q**k <= budget
    if mode == "exact" and not exact_possible:
        if not fallback:
            raise BudgetTooSmallForExact(f"q^k = {q}^{k} exceeds budget {budget}")
        mode = "bound"
    if mode == "auto":
        mode = "exact" if exact_possible else "bound"
    if mode == "exact":
        best, lower, visited = _min_weight(field, c.gen, c.pivots, None, None)
        if lower < best:
            raise EnumerationIncomplete(
                f"exact enumeration stopped at [{lower}, {best}] after {visited} codewords")
        return DistanceReport("exact", best, best, visited, budget, d_lower=best)
    best, lower, visited = _min_weight(field, c.gen, c.pivots, None, budget)
    return DistanceReport("lower-upper", None, best if best <= n else None, visited, budget,
                          d_lower=lower)


def min_weight_outside(c1: LinearCode, c2: LinearCode,
                       budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Exact min weight over c1 \\ c2^perp-euclidean, i.e. codewords of c1 not
    orthogonal to all of c2. Returns (weight, codewords visited); weight
    n + 1 when the difference is empty."""
    if c1.field != c2.field or c1.n != c2.n:
        raise LengthMismatch("codes live in different ambient spaces")
    field, k, q = c1.field, c1.k, c1.field.order
    if k == 0 or c2.k == 0:
        return c1.n + 1, 0  # empty difference: c2^perp is everything
    if q**k > budget:
        raise BudgetTooSmallForExact(f"q^k = {q}^{k} exceeds budget {budget}")
    best, lower, visited = _min_weight(field, c1.gen, c1.pivots, c2.gen, None)
    if lower < best:
        raise EnumerationIncomplete(
            f"enumeration of c1 stopped at [{lower}, {best}] after {visited} codewords")
    return best, visited


def codeword_weights(c: LinearCode) -> np.ndarray:
    """Weights of all q^k codewords in message counting order (oracle-sized)."""
    field = c.field
    words = np.zeros((1, c.n), dtype=np.int64)
    for i in range(c.k - 1, -1, -1):
        row = c.gen[i]
        stack = [field.add_arr(words, field.mul_arr(v, row)) for v in range(field.order)]
        words = np.concatenate(stack, axis=0)
    return np.count_nonzero(words, axis=1)
