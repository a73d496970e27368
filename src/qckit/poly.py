"""Polynomials over a finite field and the factorization of x^m - 1.

The factorization is driven by cyclotomic cosets: each q-cyclotomic coset of
Z_m yields one irreducible factor, the minimal polynomial of alpha^s for a
primitive m-th root of unity alpha living in the splitting field F_{q^w},
w = ord_m(q).  The factor of a coset C is the product of (x - alpha^c) over
c in C, multiplied out in the splitting field; its coefficients lie in the
embedded copy of F_q and are pulled back along the canonical embedding.

Factors are classified into reciprocal pairs (g, g*) and self-reciprocal
polynomials f_i, with x - 1 ordered last among the self-reciprocal ones.

Poly multiplies and has no division or gcd: every quotient the library needs
is a product of known factors.  Its product works over any field, the
splitting field included, so it does not share a body with gf's F_p residue
product, which defines the fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import gcd

import numpy as np

from .errors import (
    FactorProductMismatch,
    MinimalPolynomialMismatch,
    MixedFields,
    NotASubfield,
    NotCoprime,
    ReciprocalMismatch,
    ZeroConstantTerm,
)
from .gf import GF, embed, field_make, is_prime, multiplicative_order, primitive_mth_root, restrict


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

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def eval_in(self, big: GF, x: int) -> int:
        """Evaluate at a point of an extension, embedding the coefficients."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = big.add(big.mul(acc, x), embed(self.field, big, c))
        return acc

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


# ---------------------------------------------------------------------------
# cyclotomic cosets


@dataclass(frozen=True)
class CosetTable:
    """Partition of Z_m into q-cyclotomic cosets, each sorted, minima first."""

    q: int
    m: int
    cosets: tuple[tuple[int, ...], ...]

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


def three_factor_scan(q: int, m_max: int) -> list[int]:
    """All prime m <= m_max where x^m - 1 splits into exactly three
    irreducible factors over F_q, matching the published tables (prime
    squares such as m = 9, 25 over F_2 also give three factors and are not
    reported).  For a prime m not dividing q, the cosets are {0} and those of
    the units, each of size ord_m(q), so there are three exactly when
    2 ord_m(q) = m - 1.
    """
    return [m for m in range(2, m_max + 1)
            if is_prime(m) and q % m and 2 * multiplicative_order(q, m) == m - 1]


# ---------------------------------------------------------------------------
# factorization of x^m - 1


@dataclass(frozen=True)
class FactorSet:
    """x^m - 1 = delta * prod g_j g_j* * prod f_i over F_q, canonically ordered.

    selfrec keeps x - 1 last; pairs are oriented with g the lexicographically
    smaller factor and sorted by their smallest coset representative.
    rep_of maps each factor (by coefficient tuple) to the smallest exponent s
    with factor = minpoly(alpha^s) for the canonical alpha, a primitive m-th
    root of unity in the splitting field F_{q^splitting_w}, whose powers
    alpha^0, ..., alpha^(m-1) are alpha_pows.  coset_factor
    maps each q-cyclotomic coset of `cosets` to its minimal polynomial.
    """

    field: GF
    m: int
    delta: int
    pairs: tuple[tuple[Poly, Poly], ...]
    selfrec: tuple[Poly, ...]
    rep_of: dict
    splitting_w: int
    splitting_field: GF = dataclass_field(repr=False)
    alpha: int = dataclass_field(repr=False)
    alpha_pows: np.ndarray = dataclass_field(repr=False, compare=False)
    cosets: CosetTable = dataclass_field(repr=False)
    coset_factor: dict = dataclass_field(repr=False)

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


_FACTOR_CACHE: dict[tuple[GF, int], FactorSet] = {}


def factor_xm1(q_field: GF, m: int) -> FactorSet:
    """Factor x^m - 1 over F_q into reciprocal pairs and self-reciprocal
    parts.  Each (F_q, m) is factored once and kept."""
    fs = _FACTOR_CACHE.get((q_field, m))
    if fs is None:
        fs = _FACTOR_CACHE[(q_field, m)] = _factor(q_field, m)
    return fs


def _factor(q_field: GF, m: int) -> FactorSet:
    q = q_field.order
    if m < 1 or gcd(m, q) != 1:
        raise NotCoprime(f"gcd({m}, {q}) != 1")
    table = cyclotomic_cosets(q, m)
    w = 1 if m == 1 else multiplicative_order(q, m)
    K = field_make(q_field.p, q_field.t * w, order_cap=None)
    alpha = primitive_mth_root(K, m)
    alpha_pows = K._powers(alpha, m)

    coset_factor: dict[tuple[int, ...], Poly] = {}
    for coset in table.cosets:
        mp = Poly.one(K)
        for c in coset:
            mp = mp * Poly(K, (K.neg(int(alpha_pows[c])), 1))
        try:
            coeffs = restrict(q_field, K, list(mp.coeffs))
        except NotASubfield:
            raise MinimalPolynomialMismatch(
                f"the product over coset {coset}, {mp}, has a coefficient outside {q_field!r}") from None
        coset_factor[coset] = Poly(q_field, tuple(coeffs.tolist()))

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
        splitting_field=K,
        alpha=alpha,
        alpha_pows=alpha_pows,
        cosets=table,
        coset_factor=coset_factor,
    )
    prod = Poly.one(q_field)
    for f in fs.factors:
        prod = prod * f
    if prod != Poly.x_pow_minus_one(q_field, m):
        raise FactorProductMismatch(
            f"the factors of x^{m} - 1 over {q_field!r} multiply to {prod}")
    return fs
