"""Polynomials over a finite field and the factorization of x^m - 1.

The factorization is driven by cyclotomic cosets: each q-cyclotomic coset of
Z_m yields one irreducible factor, the minimal polynomial of alpha^s for a
primitive m-th root of unity alpha living in the splitting field F_{q^w},
w = ord_m(q).  Minimal polynomials are recovered by linear algebra on the
F_q-coordinates of powers of alpha^s, so the splitting field is only ever
used as a vector space and may be large.

Factors are classified into reciprocal pairs (g, g*) and self-reciprocal
polynomials f_i, with x - 1 ordered last among the self-reciprocal ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import gcd

from .errors import (
    DependentPowerBasis,
    DivisionByZero,
    FactorProductMismatch,
    MinimalPolynomialMismatch,
    MixedFields,
    NotCoprime,
    ReciprocalMismatch,
    ZeroConstantTerm,
)
from .gf import GF, Felt, _embedding_pair, field_make, is_prime, multiplicative_order, primitive_mth_root


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over a field; coeffs ascending, no trailing zeros."""

    field: GF
    coeffs: tuple[int, ...]

    @staticmethod
    def make(field: GF, coeffs) -> "Poly":
        cs = [int(c) % field.order if field.t == 1 else int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def zero(field: GF) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: GF) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def x(field: GF) -> "Poly":
        return Poly(field, (0, 1))

    @staticmethod
    def x_pow_minus_one(field: GF, m: int) -> "Poly":
        cs = [0] * (m + 1)
        cs[0] = field.neg(1)
        cs[m] = 1
        return Poly(field, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise MixedFields(f"polynomials over {self.field!r} and {other.field!r}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(f.add(a, b))
        return Poly.make(f, out)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly.make(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly.make(f, [f.mul(c, a) for a in self.coeffs])

    def divmod_(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dd = other.degree
        lead_inv = f.inv(other.coeffs[-1])
        quo = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            c = f.mul(rem[-1], lead_inv)
            k = len(rem) - 1 - dd
            quo[k] = c
            for i in range(dd + 1):
                rem[k + i] = f.sub(rem[k + i], f.mul(c, other.coeffs[i]))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly.make(f, quo), Poly.make(f, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod_(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod_(other)[1]

    def gcd_(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def eval_at(self, x) -> int:
        """Evaluate at a value of this polynomial's own field."""
        f = self.field
        v = x.val if isinstance(x, Felt) else int(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, v), c)
        return acc

    def eval_in(self, big: GF, x: int) -> int:
        """Evaluate at a point of an extension, embedding the coefficients."""
        fwd, _ = _embedding_pair(self.field, big)
        acc = 0
        for c in reversed(self.coeffs):
            acc = big.add(big.mul(acc, x), int(fwd[c]))
        return acc

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            term = 0
            for _ in range(i % f.p):
                term = f.add(term, c)
            out.append(term)
        return Poly.make(f, out)

    def reciprocal(self) -> "Poly":
        """Monic normalization of x^deg(f) * f(1/x); needs f(0) != 0."""
        if self.is_zero() or self.coeffs[0] == 0:
            raise ZeroConstantTerm("reciprocal requires a nonzero constant term")
        return Poly.make(self.field, tuple(reversed(self.coeffs))).monic()

    def lex_key(self) -> tuple[int, ...]:
        """Comparison key: degree, then coefficients from highest to lowest."""
        return (self.degree,) + tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                parts.append(xs if c == 1 else f"{c}{xs}" if self.field.t == 1 else f"[{c}]{xs}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {"field": self.field.to_json(), "coeffs": list(self.coeffs)}


def reciprocal(f: Poly) -> Poly:
    return f.reciprocal()


# ---------------------------------------------------------------------------
# cyclotomic cosets


@dataclass(frozen=True)
class CosetTable:
    """Partition of Z_m into q-cyclotomic cosets, each sorted, minima first."""

    q: int
    m: int
    cosets: tuple[tuple[int, ...], ...]

    @property
    def reps(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cosets)

    def coset_of(self, s: int) -> tuple[int, ...]:
        s %= self.m
        for c in self.cosets:
            if s in c:
                return c
        raise KeyError(s)  # pragma: no cover

    def to_json(self) -> dict:
        return {"q": self.q, "m": self.m, "cosets": [list(c) for c in self.cosets]}


def cyclotomic_cosets(q: int, m: int) -> CosetTable:
    if m < 1 or gcd(m, q) != 1:
        raise NotCoprime(f"gcd({m}, {q}) != 1")
    seen = [False] * m
    cosets = []
    for s in range(m):
        if seen[s]:
            continue
        orbit = []
        x = s
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = (x * q) % m
        cosets.append(tuple(sorted(orbit)))
    return CosetTable(q, m, tuple(cosets))


def three_factor_scan(q: int, m_max: int, prime_only: bool = True) -> list[int]:
    """All m <= m_max where x^m - 1 splits into exactly three irreducible
    factors over F_q, counted via cyclotomic cosets.

    By default only prime m are reported, matching the published tables;
    prime squares (e.g. m = 9, 25 over F_2) also hit three factors and are
    included with prime_only=False.
    """
    out = []
    for m in range(1, m_max + 1):
        if gcd(m, q) != 1:
            continue
        if len(cyclotomic_cosets(q, m).cosets) == 3 and (not prime_only or is_prime(m)):
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# factorization of x^m - 1


class _FqCoords:
    """F_q-coordinates of elements of the splitting field K = F_{q^w}."""

    def __init__(self, K: GF, base: GF):
        self.K = K
        self.base = base
        self.w = K.t // base.t
        if base.t == 1:
            self._solver = None
            return
        p, t, tw = base.p, base.t, K.t
        fwd, _ = _embedding_pair(base, K)
        z = K.gen
        # columns of the change-of-basis matrix: z^i * e(omega^j), i < w, j < t
        cols = []
        omega_img = int(fwd[base.gen])
        zi = 1
        for _ in range(self.w):
            oj = 1
            for _ in range(t):
                cols.append(K.coeffs(K.mul(zi, oj)))
                oj = K.mul(oj, omega_img)
            zi = K.mul(zi, z)
        # invert the (tw x tw) matrix over F_p
        n = tw
        aug = [[cols[c][r] for c in range(n)] + [1 if k == r else 0 for k in range(n)] for r in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] % p != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = pow(aug[col][col], p - 2, p)
            aug[col] = [(v * inv) % p for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
        self._solver = [row[n:] for row in aug]

    def coords(self, x: int) -> tuple[int, ...]:
        base, K = self.base, self.K
        if base.t == 1:
            return K.coeffs(x)
        vec = K.coeffs(x)
        p = base.p
        sol = [sum(row[i] * vec[i] for i in range(len(vec))) % p for row in self._solver]
        return tuple(base.from_coeffs(sol[i * base.t:(i + 1) * base.t]) for i in range(self.w))


def _minpoly_over_base(K: GF, base: GF, coords: _FqCoords, beta: int, d: int) -> Poly:
    """Monic minimal polynomial (degree exactly d) of beta over the base field."""
    vs = []
    x = 1
    for _ in range(d + 1):
        vs.append(coords.coords(x))
        x = K.mul(x, beta)
    w = coords.w
    # solve sum_i c_i vs[i] = -vs[d] over the base field
    f = base
    rows = [[vs[i][r] for i in range(d)] + [f.neg(vs[d][r])] for r in range(w)]
    piv_cols = []
    r = 0
    for col in range(d):
        piv = next((i for i in range(r, w) if rows[i][col] != 0), None)
        if piv is None:
            continue  # pragma: no cover - minimal polynomial has degree exactly d
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][col])
        rows[r] = [f.mul(inv, v) for v in rows[r]]
        for i in range(w):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(rows[i], rows[r])]
        piv_cols.append(col)
        r += 1
    if piv_cols != list(range(d)):
        raise DependentPowerBasis(
            f"powers of {beta} up to degree {d - 1} are dependent over {base!r}")
    sol = [rows[i][d] for i in range(d)]
    return Poly.make(f, sol + [1])


@dataclass
class FactorSet:
    """x^m - 1 = delta * prod g_j g_j* * prod f_i over F_q, canonically ordered.

    selfrec keeps x - 1 last; pairs are oriented with g the lexicographically
    smaller factor and sorted by their smallest coset representative.
    rep_of maps each factor (by coefficient tuple) to the smallest exponent s
    with factor = minpoly(alpha^s) for the canonical alpha.
    """

    field: GF
    m: int
    delta: int
    pairs: tuple[tuple[Poly, Poly], ...]
    selfrec: tuple[Poly, ...]
    rep_of: dict
    splitting_w: int
    _ctx: dict = dataclass_field(default_factory=dict, repr=False)

    @property
    def factors(self) -> list[Poly]:
        out = []
        for g, gs in self.pairs:
            out.extend([g, gs])
        out.extend(self.selfrec)
        return out

    def rep(self, f: Poly) -> int:
        return self.rep_of[f.coeffs]

    def to_json(self) -> dict:
        return {
            "q": self.field.order,
            "m": self.m,
            "delta": self.delta,
            "pairs": [[list(g.coeffs), list(gs.coeffs)] for g, gs in self.pairs],
            "selfrec": [list(f.coeffs) for f in self.selfrec],
            "reps": {str(list(f.coeffs)): self.rep_of[f.coeffs] for f in self.factors},
        }


def factor_xm1(q_field: GF, m: int) -> FactorSet:
    """Factor x^m - 1 over F_q into reciprocal pairs and self-reciprocal parts."""
    q = q_field.order
    if m < 1 or gcd(m, q) != 1:
        raise NotCoprime(f"gcd({m}, {q}) != 1")
    table = cyclotomic_cosets(q, m)
    w = 1 if m == 1 else multiplicative_order(q, m)
    K = field_make(q_field.p, q_field.t * w, order_cap=None)
    alpha = 1 if m == 1 else primitive_mth_root(K, m).val
    coords = _FqCoords(K, q_field)

    coset_factor: dict[tuple[int, ...], Poly] = {}
    for coset in table.cosets:
        beta = K.pow_(alpha, coset[0])
        mp = _minpoly_over_base(K, q_field, coords, beta, len(coset))
        if mp.eval_in(K, beta) != 0:
            raise MinimalPolynomialMismatch(
                f"minimal polynomial {mp} does not vanish at {beta} in {K!r}")
        coset_factor[coset] = mp

    pairs = []
    selfrec = []
    rep_of = {}
    done = set()
    for coset in table.cosets:
        if coset in done:
            continue
        f = coset_factor[coset]
        rep_of[f.coeffs] = coset[0]
        neg_coset = table.coset_of(-coset[0] % m)
        if neg_coset == coset:
            selfrec.append(f)
            done.add(coset)
        else:
            g2 = coset_factor[neg_coset]
            rep_of[g2.coeffs] = neg_coset[0]
            if g2 != f.reciprocal():
                raise ReciprocalMismatch(
                    f"factor {g2} of coset {neg_coset} is not the reciprocal of {f}")
            pair = (f, g2) if f.lex_key() <= g2.lex_key() else (g2, f)
            pairs.append(pair)
            done.add(coset)
            done.add(neg_coset)

    pairs.sort(key=lambda pr: min(rep_of[pr[0].coeffs], rep_of[pr[1].coeffs]))
    selfrec.sort(key=lambda f: (rep_of[f.coeffs] == 0, rep_of[f.coeffs]))

    fs = FactorSet(
        field=q_field,
        m=m,
        delta=1,
        pairs=tuple(pairs),
        selfrec=tuple(selfrec),
        rep_of=rep_of,
        splitting_w=w,
        _ctx={"K": K, "alpha": alpha, "coset_factor": coset_factor, "cosets": table},
    )
    prod = Poly.one(q_field)
    for f in fs.factors:
        prod = prod * f
    if prod != Poly.x_pow_minus_one(q_field, m):
        raise FactorProductMismatch(
            f"the factors of x^{m} - 1 over {q_field!r} multiply to {prod}")
    return fs
