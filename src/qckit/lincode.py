"""Linear codes over a finite field: canonical generator matrices, duals,
exhaustive minimum distance, GRS constructors, copies, and Galois closure.

A code is identified with its reduced row echelon generator matrix, so code
equality is matrix equality and set-level statements (involution of duals,
C = C^q, ...) are decidable by comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
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
from .gf import GF, Felt, factorize

DEFAULT_BUDGET = 2**24


# ---------------------------------------------------------------------------
# echelon forms


def _rref(field: GF, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    rows, n = mat.shape
    if rows == 0:
        return mat.reshape(0, n), ()
    if field.has_tables:
        add, mul, neg, inv = field.tables()
        r = mat.copy()
        pivots = []
        row = 0
        for col in range(n):
            if row == rows:
                break
            piv = None
            for i in range(row, rows):
                if r[i, col] != 0:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != row:
                r[[row, piv]] = r[[piv, row]]
            r[row] = mul[inv[r[row, col]], r[row]]
            others = np.nonzero(r[:, col])[0]
            others = others[others != row]
            if others.size:
                factors = neg[r[others, col]]
                r[others] = add[r[others], mul[factors[:, None], r[row][None, :]]]
            pivots.append(col)
            row += 1
        return np.ascontiguousarray(r[:row]), tuple(pivots)
    # generic scalar path for fields without lookup tables
    r = [list(map(int, row)) for row in mat]
    pivots = []
    row = 0
    for col in range(n):
        if row == rows:
            break
        piv = next((i for i in range(row, rows) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        inv = field.inv(r[row][col])
        r[row] = [field.mul(inv, v) for v in r[row]]
        for i in range(rows):
            if i != row and r[i][col] != 0:
                c = r[i][col]
                r[i] = [field.sub(a, field.mul(c, b)) for a, b in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return np.array(r[:row], dtype=np.int64).reshape(row, n), tuple(pivots)


def _gram(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T over the field; a is (k, n), b is (j, n)."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    if field.has_tables:
        add, mul, _, _ = field.tables()
        prod = mul[a[:, None, :], b[None, :, :]]
        acc = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
        for col in range(a.shape[1]):
            acc = add[acc, prod[:, :, col]]
        return acc
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            s = 0
            for col in range(a.shape[1]):
                s = field.add(s, field.mul(int(a[i, col]), int(b[j, col])))
            out[i, j] = s
    return out


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
                out.append(v.val)
            else:
                v = int(v)
                if not 0 <= v < field.order:
                    raise MixedFields(f"element index {v} out of range for {field!r}")
                out.append(v)
        vals.append(out)
    mat = np.array(vals, dtype=np.int64).reshape(len(vals), n)
    gen, pivots = _rref(field, mat)
    return LinearCode(field, n, gen, pivots)


def full_space(field: GF, n: int) -> LinearCode:
    return LinearCode(field, n, np.eye(n, dtype=np.int64), tuple(range(n)))


def zero_code(field: GF, n: int) -> LinearCode:
    return LinearCode(field, n, np.zeros((0, n), dtype=np.int64), ())


# ---------------------------------------------------------------------------
# duals


def dual_euclidean(c: LinearCode) -> LinearCode:
    field, n, g, pivots = c.field, c.n, c.gen, c.pivots
    k = c.k
    free = [j for j in range(n) if j not in set(pivots)]
    rows = np.zeros((len(free), n), dtype=np.int64)
    for idx, fcol in enumerate(free):
        rows[idx, fcol] = 1
        for i, pcol in enumerate(pivots):
            rows[idx, pcol] = field.neg(int(g[i, fcol]))
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
    field = c1.field
    piv = {col: i for i, col in enumerate(c2.pivots)}
    if field.has_tables:
        add, mul, neg, _ = field.tables()
        rows = c1.gen.copy()
        for col, i in piv.items():
            mask = rows[:, col] != 0
            if mask.any():
                rows[mask] = add[rows[mask], mul[neg[rows[mask, col]][:, None], c2.gen[i][None, :]]]
        return not rows.any()
    for row in c1.gen:
        row = list(map(int, row))
        for col, i in piv.items():
            if row[col] != 0:
                f = row[col]
                row = [field.sub(a, field.mul(f, b)) for a, b in zip(row, c2.gen[i])]
        if any(row):
            return False
    return True


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
    reports the best upper bound found within the enumeration budget.  The
    zero code gets the undefined sentinel n + 1 so it never poisons minima.
    """

    mode: str
    d_exact: int | None
    d_upper: int | None
    enumerated: int
    budget: int
    zero_code: bool = False

    @property
    def value(self) -> int:
        return self.d_exact if self.d_exact is not None else self.d_upper

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "d_exact": self.d_exact,
            "d_upper": self.d_upper,
            "enumerated": self.enumerated,
            "budget": self.budget,
            "zero_code": self.zero_code,
        }


def _scaled_rows(field: GF, gen: np.ndarray) -> np.ndarray:
    """Rows omega^j * G_i over the prime-subfield digits, for block enumeration."""
    k, n = gen.shape
    t = field.t
    rows = np.zeros((k * t, n), dtype=np.int64)
    _, mul, _, _ = field.tables()
    omega_pow = 1
    for j in range(t):
        rows[np.arange(k) * t + j] = mul[omega_pow, gen]
        omega_pow = field.mul(omega_pow, field.gen)
    return rows


def class_count(q: int, k: int) -> int:
    """Number of scalar classes of nonzero messages."""
    return (q**k - 1) // (q - 1)


def min_distance(c: LinearCode, budget: int = DEFAULT_BUDGET, mode: str = "auto",
                 fallback: bool = False) -> DistanceReport:
    """Exhaustive minimum distance by block enumeration, or an upper bound
    within budget.

    Exact mode needs q^k <= budget; with fallback=True an over-budget request
    degrades to bound mode instead of raising.
    """
    field, n, k = c.field, c.n, c.k
    q = field.order
    if k == 0:
        return DistanceReport("exact", n + 1, None, 0, budget, zero_code=True)
    if k == 1:
        w = int(np.count_nonzero(c.gen[0]))
        return DistanceReport("exact", w, w, 1, budget)
    exact_possible = q**k <= budget
    if mode == "exact" and not exact_possible:
        if not fallback:
            raise BudgetTooSmallForExact(f"q^k = {q}^{k} exceeds budget {budget}")
        mode = "bound"
    if mode == "auto":
        mode = "exact" if exact_possible else "bound"
    if not field.has_tables:
        # large-order constituent fields: scalar-path exhaustive walk
        reps = class_count(q, k)
        if mode != "exact" or reps > 2**16:
            raise BudgetTooSmallForExact(
                f"field order {q} has no lookup tables; only small exact runs supported"
            )
        best = n + 1
        for lead in range(k):
            tail = k - 1 - lead
            for digits in range(q**tail):
                msg = digits
                word = [int(v) for v in c.gen[lead]]
                for i in range(tail):
                    coef = msg % q
                    msg //= q
                    if coef:
                        row = c.gen[lead + 1 + i]
                        word = [field.add(w, field.mul(coef, int(r))) for w, r in zip(word, row)]
                best = min(best, sum(1 for w in word if w))
        return DistanceReport("exact", best, best, reps, budget)
    rows = _scaled_rows(field, c.gen)
    add, _, _, _ = field.tables()
    no_syn = np.zeros((rows.shape[0], 0), dtype=np.int64)
    if mode == "exact":
        reps = class_count(q, k)
        best, visited, complete = _kernels.gray_min_weight(
            rows, no_syn, add, field.p, field.t, k, reps + 1)
        if not complete or visited != reps:
            raise EnumerationIncomplete(
                f"exact enumeration visited {visited} of {reps} classes (complete={complete})")
        return DistanceReport("exact", best, best, visited, budget)
    best, visited, _ = _kernels.gray_min_weight(
        rows, no_syn, add, field.p, field.t, k, budget)
    return DistanceReport("lower-upper", None, best if best <= n else None, visited, budget)


def min_weight_outside(c1: LinearCode, c2: LinearCode,
                       budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Exact min weight over c1 \\ c2^perp-euclidean, i.e. codewords of c1 not
    orthogonal to all of c2. Returns (weight, enumerated); weight n + 1 when
    the difference is empty."""
    if c1.field != c2.field or c1.n != c2.n:
        raise LengthMismatch("codes live in different ambient spaces")
    field, k, q = c1.field, c1.k, c1.field.order
    if k == 0 or c2.k == 0:
        return c1.n + 1, 0  # empty difference: c2^perp is everything
    if q**k > budget:
        raise BudgetTooSmallForExact(f"q^k = {q}^{k} exceeds budget {budget}")
    rows = _scaled_rows(field, c1.gen)
    add, _, _, _ = field.tables()
    reps = class_count(q, k)
    best, visited, complete = _kernels.gray_min_weight(
        rows, _gram(field, rows, c2.gen), add, field.p, field.t, k, reps + 1)
    if not complete:
        raise EnumerationIncomplete(f"enumeration of c1 stopped after {visited} of {reps} classes")
    return best, visited


def codeword_weights(c: LinearCode) -> np.ndarray:
    """Weights of all q^k codewords in message counting order (oracle-sized)."""
    field = c.field
    add, mul, _, _ = field.tables()
    words = np.zeros((1, c.n), dtype=np.int64)
    for i in range(c.k - 1, -1, -1):
        row = c.gen[i]
        stack = [add[words, mul[v, row][None, :]] for v in range(field.order)]
        words = np.concatenate(stack, axis=0)
    return np.count_nonzero(words, axis=1)
