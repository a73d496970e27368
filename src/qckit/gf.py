"""Finite fields F_{p^t} with deterministic canonical moduli.

Elements are plain integer indices in every API: the coefficient vector
(c_0, ..., c_{t-1}) on the power basis, read little-endian base p, so the
index doubles as the serialization and as the total order used for every
"least element" rule.

The canonical modulus for (p, t) is the lexicographically smallest monic
irreducible polynomial of degree t over F_p, comparing coefficient vectors
from highest to lowest degree.  The canonical embedding of a subfield sends
its generator to the least root of its modulus in the target field.  Both
rules are deterministic, so two fields with equal (p, t) are interchangeable.

Addition and negation have one body each, which takes Python ints and integer
arrays alike (uint16 ones for the prime fields whose dtype is uint16, see
PANEL); add_arr and neg_arr are that body on arrays, except that
odd-characteristic extension fields up to ADD_TABLE_MAX_ORDER add through a
table built by the same body.  Prime fields multiply integers mod p.
Extension fields up to LOG_MAX_ORDER multiply and raise to powers through
lazily built log/antilog arrays, larger ones by polynomial products.

The field maps have one array body each: Frobenius is GF.pow_arr (and
lincode.code_power_q on codes), the canonical embedding and its inverse are
_embedding_pair, and the relative trace is qc.CrtDecomposition._trace_table.
Two pieces are unused by the library and stay for the benchmark harness in
perfbench/: the full add/mul tables of fields up to TABLE_MAX_ORDER
(`tables()`, the array operations on the element grid), and the Felt record
with unembed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZero,
    InvalidLogTable,
    NoEmbedding,
    NonPrimeCharacteristic,
    NoRootOfThatOrder,
    NotASubfield,
    OrderCapExceeded,
    QCKitError,
)

DEFAULT_ORDER_CAP = 2**62  # keeps element indices inside int64 for numpy paths
TABLE_MAX_ORDER = 1024  # full q x q numpy tables (quadratic build cost)
LOG_MAX_ORDER = 65536  # log/antilog arrays (scalar and array multiplication)
ADD_TABLE_MAX_ORDER = 256  # q x q int64 add table for odd extension fields: 512 KB at most
# Columns that elimination (lincode._rref) clears per panel before one product
# over at most PANEL columns updates the rest.  Prime fields whose uint16
# residues hold such a product, PANEL * (p - 1)^2 + (p - 1) < 2^16, hold
# elements as uint16 (GF.dtype): p <= 61.
PANEL = 16


# ---------------------------------------------------------------------------
# integer helpers


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n stays small in this library."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, m: int) -> int:
    """Order of a modulo m; requires gcd(a, m) = 1."""
    if m == 1:
        return 1
    a %= m
    order = 1
    x = a
    while x != 1:
        x = (x * a) % m
        order += 1
        if order > m:
            raise ValueError(f"{a} is not a unit modulo {m}")
    return order


def residue(x, p: int):
    """x mod p for ints and integer arrays; numpy's floor division by a
    scalar is several times faster than its %."""
    return x - x // p * p


def _has_exact_order(x: int, m: int, power) -> bool:
    """Whether x, with x^m = 1, has multiplicative order exactly m:
    x^(m/r) != 1 for every prime r | m."""
    return all(power(x, m // r) != 1 for r in factorize(m))


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (coefficient lists, ascending degree)


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic
    a = a[:]
    df = len(f) - 1
    while len(a) > df:
        c = a[-1]
        if c:
            k = len(a) - 1 - df
            for i in range(df):
                a[k + i] = (a[k + i] - c * f[i]) % p
        a.pop()
    return _ptrim(a)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a = _pmonic_rem(a, b, p)
        a, b = b, a
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _pmonic_rem(a: list[int], b: list[int], p: int) -> list[int]:
    inv = pow(b[-1], p - 2, p)
    bm = [(c * inv) % p for c in b]
    return _pmod(a, bm, p)


def _ppow_xq(f: list[int], p: int, e: int) -> list[int]:
    """x^(p^e) mod f via iterated Frobenius."""
    x = [0, 1]
    y = _pmod(x, f, p)
    for _ in range(e):
        y = _ppowmod(y, p, f, p)
    return y


def _ppowmod(a: list[int], n: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = a[:]
    while n:
        if n & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        n >>= 1
    return result


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin test for a monic polynomial over F_p."""
    t = len(coeffs) - 1
    if t < 1:
        return False
    if coeffs[0] == 0:
        return t == 1  # divisible by x unless it IS x
    if t == 1:
        return True
    for r in factorize(t):
        u = _ppow_xq(coeffs, p, t // r)
        u = _ptrim([(u[i] if i < len(u) else 0) - (1 if i == 1 else 0) for i in range(max(len(u), 2))])
        if len(_pgcd(coeffs, _ptrim([c % p for c in u]), p)) > 1:
            return False  # x^(p^(t/r)) - x shares a factor with the polynomial
    xq = _ppow_xq(coeffs, p, t)
    return xq == [0, 1]


def _canonical_modulus(p: int, t: int) -> tuple[int, ...]:
    """Least monic irreducible of degree t, comparing (c_{t-1}, ..., c_0)."""
    if t == 1:
        return (0, 1)
    for idx in range(p**t):
        # little-endian base-p decode: ascending idx sorts (c_{t-1}, ..., c_0)
        rem = idx
        coeffs = [0] * t
        for pos in range(t):
            coeffs[pos] = rem % p
            rem //= p
        cand = coeffs + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {t} over F_{p}")  # pragma: no cover


# ---------------------------------------------------------------------------
# the field type


class GF:
    """A finite field F_{p^t}. Use field_make() to get the cached canonical one."""

    __slots__ = (
        "p",
        "t",
        "order",
        "modulus",
        "dtype",
        "_exp",
        "_log",
        "_tables",
        "_add",
    )

    def __init__(self, p: int, t: int, modulus: tuple[int, ...]):
        self.p = p
        self.t = t
        self.order = p**t
        self.modulus = modulus
        # the dtype of element arrays in elimination and products
        self.dtype = np.dtype(np.uint16 if t == 1 and (2**16 - p) // (p - 1) ** 2 >= PANEL else np.int64)
        self._exp = None
        self._log = None
        self._tables = None
        self._add = None

    # -- representation ----------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.t})" if self.t > 1 else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.t == other.t
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.t, self.modulus))

    def to_json(self) -> dict:
        return {"p": self.p, "t": self.t, "modulus": list(self.modulus)}

    # -- element encoding ----------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.t):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        v = 0
        for c in reversed(list(cs)):
            v = v * self.p + (c % self.p)
        return v

    @property
    def gen(self) -> int:
        """A generator of the field as an F_p-algebra: the residue of x (value p)
        for t > 1, so 1, x, ..., x^(t-1) is a basis over F_p; 1 for prime fields."""
        return self.p if self.t > 1 else 1

    def elements(self):
        return range(self.order)

    # -- arithmetic ----------------------------------------------------------
    #
    # add, neg and sub take Python ints or integer arrays (numpy broadcasting),
    # unsigned ones included.  In characteristic 2 addition is XOR and
    # negation the identity; other extension fields work digit by digit on
    # the base-p expansion.  mul, inv and pow_ take ints; mul_arr and pow_arr
    # are their array forms.  The *_arr methods always return a new array;
    # add_arr, neg_arr and mul_arr return uint16 when the field's dtype and
    # their inputs are, and int64 otherwise.
    # Prime fields multiply integers mod p: mul_arr in int64 up to p = 2^31,
    # where products stay inside int64.  Over extension fields, multiplication
    # and powers go through the log/antilog arrays up to LOG_MAX_ORDER, and
    # through polynomial products (_raw_mul) above it.

    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        if self.t == 1:
            s = a + b
            return s - s // p * p  # residue(s, p), inline: ints are the common case
        out = 0
        pw = 1
        for _ in range(self.t):
            out += (a // pw + b // pw) % p * pw  # higher digits add multiples of p
            pw *= p
        return out

    def neg(self, a):
        p = self.p
        if p == 2:
            return a
        if self.t == 1:
            s = p - a  # not -a, which wraps around on unsigned arrays
            return s - s // p * p
        out = 0
        pw = 1
        for _ in range(self.t):
            out += -(a // pw) % p * pw
            pw *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.t == 1:
            return (a * b) % self.p
        exp, log = self._logs()
        if exp is None:
            # the indices 0 and 1 are the elements 0 and 1: no polynomial product
            return a * b if a <= 1 or b <= 1 else self._raw_mul(a, b)
        return int(exp[log[a] + log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self!r}")
        if self.t == 1:
            return pow(a, self.p - 2, self.p)
        exp, log = self._logs()
        if exp is not None:
            return int(exp[(self.order - 1 - log[a]) % (self.order - 1)])
        return self.pow_(a, self.order - 2)

    def pow_(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow_(self.inv(a), -n)
        if a == 0:
            return 0 if n else 1
        n %= self.order - 1
        if self.t == 1:
            return pow(a, n, self.p)
        exp, log = self._logs()
        if exp is not None:
            return int(exp[(log[a] * n) % (self.order - 1)])
        return self._raw_pow(a, n)

    # -- log/antilog tables ----------------------------------------------------

    def _logs(self):
        if self.order > LOG_MAX_ORDER:
            return None, None
        if self._exp is None:
            self._build_logs()
        return self._exp, self._log

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _pmul(list(self.coeffs(a)), list(self.coeffs(b)), self.p)
        return self.from_coeffs(_pmod(prod, list(self.modulus), self.p))

    def _raw_pow(self, a: int, n: int) -> int:
        """a^n by square-and-multiply over _raw_mul; needs no log arrays."""
        result = 1
        while n:
            if n & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return result

    def _build_logs(self):
        """exp/log arrays for a primitive element g.  log[0] is the sentinel 2n
        and exp is zero from index 2n on, so exp[log[a] + log[b]] is the
        product a * b for every pair, zero included (n = order - 1)."""
        n = self.order - 1
        g = next((c for c in range(1, self.order) if _has_exact_order(c, n, self._raw_pow)), None)
        if g is None:
            raise InvalidLogTable(f"no primitive element found in {self!r}")
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        log = np.full(self.order, 2 * n, dtype=np.int64)
        x = 1
        for i in range(n):
            exp[i] = x
            exp[i + n] = x
            log[x] = i
            x = self._raw_mul(x, g)
        if x != 1:
            raise InvalidLogTable(f"powers of {g} do not cycle back to 1 in {self!r}")
        self._exp = exp
        self._log = log

    # -- numpy element tables ----------------------------------------------------

    def tables(self):
        """(add, mul, neg, inv) numpy lookup tables; only for small orders.
        Unused by the library; perfbench/ builds and traces them."""
        if self._tables is None:
            if self.order > TABLE_MAX_ORDER:
                raise OrderCapExceeded(
                    f"element tables unavailable for order {self.order} > {TABLE_MAX_ORDER}"
                )
            x = np.arange(self.order, dtype=np.int64)
            inv = np.zeros(self.order, dtype=np.int64)
            inv[1:] = self.pow_arr(x[1:], -1)
            grid = x[:, None], x
            self._tables = (self.add_arr(*grid), self.mul_arr(*grid), self.neg_arr(x), inv)
        return self._tables

    @property
    def has_tables(self) -> bool:
        return self.order <= TABLE_MAX_ORDER

    # -- elementwise array arithmetic -----------------------------------------

    def _add_table(self) -> np.ndarray:
        """Flat add table of the field: a + b is at a * order + b."""
        if self._add is None:
            x = np.arange(self.order, dtype=np.int64)
            self._add = self.add(x[:, None], x).ravel()
        return self._add

    def _arr(self, a) -> np.ndarray:
        """a as an array: arrays already in the field's dtype stay as they are,
        Python ints take that dtype, and everything else becomes int64."""
        a = np.asarray(a, dtype=self.dtype if isinstance(a, int) else None)
        return a if a.dtype == self.dtype else a.astype(np.int64, copy=False)

    def add_arr(self, a, b) -> np.ndarray:
        a, b = self._arr(a), self._arr(b)
        if self.p != 2 and self.t > 1 and self.order <= ADD_TABLE_MAX_ORDER:
            return self._add_table()[a * self.order + b]
        return self.add(a, b)

    def neg_arr(self, a) -> np.ndarray:
        a = self._arr(a)
        return a.copy() if self.p == 2 else self.neg(a)  # neg is the identity in characteristic 2

    def mul_arr(self, a, b) -> np.ndarray:
        a, b = self._arr(a), self._arr(b)
        if self.order == 2:
            return a & b
        if self.t == 1 and self.p <= 2**31:
            return residue(a * b, self.p)
        if self.order > LOG_MAX_ORDER:
            return np.frompyfunc(self.mul, 2, 1)(a.astype(object), b.astype(object)).astype(np.int64)
        exp, log = self._logs()
        return exp[log[a] + log[b]]

    def pow_arr(self, a, n: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.order > LOG_MAX_ORDER:
            return np.frompyfunc(lambda x: self.pow_(x, n), 1, 1)(a.astype(object)).astype(np.int64)
        if n < 0 and (a == 0).any():
            raise DivisionByZero(f"inverse of zero in {self!r}")
        exp, log = self._logs()
        return np.where(a == 0, 0 if n else 1, exp[log[a] * (n % (self.order - 1)) % (self.order - 1)])


_FIELD_CACHE: dict[tuple[int, int], GF] = {}


def field_make(p: int, t: int, order_cap: int | None = DEFAULT_ORDER_CAP) -> GF:
    """Construct (or fetch) the canonical field F_{p^t}."""
    if t < 1:
        raise QCKitError("extension degree must be >= 1")
    key = (p, t)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        if order_cap is not None and cached.order > order_cap:
            raise OrderCapExceeded(f"{p}^{t} exceeds order cap {order_cap}")
        return cached
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if order_cap is not None and p**t > order_cap:
        raise OrderCapExceeded(f"{p}^{t} exceeds order cap {order_cap}")
    fld = GF(p, t, _canonical_modulus(p, t))
    _FIELD_CACHE[key] = fld
    return fld


def field_from_order(q: int, order_cap: int | None = DEFAULT_ORDER_CAP) -> GF:
    """F_q for a prime power q."""
    fac = factorize(q)
    if len(fac) != 1:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    (p, t), = fac.items()
    return field_make(p, t, order_cap)


# ---------------------------------------------------------------------------
# the benchmark's element record, embeddings, roots of unity


@dataclass(frozen=True)
class Felt:
    """A (field, index) record with no arithmetic of its own.  The library
    works on integer indices only; Felt and unembed stay because the
    benchmark harness (perfbench/workloads.py) reads a slot root through
    them, and go when it no longer does."""

    field: GF
    val: int


_EMBED_CACHE: dict[tuple[int, int, int, int], tuple[np.ndarray, dict[int, int]]] = {}


def _embedding_pair(src: GF, dst: GF):
    """(forward array over all src values, inverse dict) for the canonical embedding."""
    if src.p != dst.p or dst.t % src.t != 0:
        raise NoEmbedding(f"no embedding {src!r} -> {dst!r}")
    key = (src.p, src.t, dst.p, dst.t)
    hit = _EMBED_CACHE.get(key)
    if hit is not None:
        return hit
    if src == dst or src.t == 1:  # a prime field's element c is c in every extension
        fwd = np.arange(src.order, dtype=np.int64)
        inv = {i: i for i in range(src.order)}
        _EMBED_CACHE[key] = (fwd, inv)
        return fwd, inv
    if src.order > TABLE_MAX_ORDER * 16:
        raise OrderCapExceeded(f"embedding table too large for source order {src.order}")
    # the F_p-linear map sending the power basis x^i to root^i: an element's
    # image is the sum of its base-p digits times those powers
    root = _least_root_of_modulus(src, dst)
    digits = np.arange(src.order)[:, None] // src.p ** np.arange(src.t) % src.p
    terms = dst.mul_arr(digits, [dst.pow_(root, i) for i in range(src.t)])
    fwd = functools.reduce(dst.add_arr, terms.T)
    inv = dict(zip(fwd.tolist(), range(src.order)))
    _EMBED_CACHE[key] = (fwd, inv)
    return fwd, inv


def _least_root_of_modulus(src: GF, dst: GF) -> int:
    """Least root of src's modulus inside dst (the canonical embedding target),
    for src of degree t > 1.  The roots are nonzero elements of the subfield
    with |src| elements, so they lie in its unit group: the subgroup of order
    |src| - 1 of dst's units."""
    sub_n = src.order - 1
    h = _element_of_order(dst, sub_n)
    xs = [1]
    for _ in range(sub_n - 1):
        xs.append(dst.mul(xs[-1], h))
    xs = np.array(xs, dtype=np.int64)
    acc = np.zeros_like(xs)
    for c in reversed(src.modulus):  # Horner; c < p is the prime-subfield element c
        acc = dst.add_arr(dst.mul_arr(acc, xs), c)
    roots = xs[acc == 0]
    if not roots.size:
        raise NoEmbedding(f"modulus of {src!r} has no root in {dst!r}")  # pragma: no cover
    return int(roots.min())


def _element_of_order(fld: GF, m: int) -> int:
    """Deterministic element of multiplicative order exactly m: the first
    cand^((|F| - 1) / m) of that order over cand = 1, 2, ..."""
    n = fld.order - 1
    if n % m != 0:
        raise NoRootOfThatOrder(f"{m} does not divide {fld!r} group order {n}")
    for cand in range(1, fld.order):
        y = fld.pow_(cand, n // m)
        if _has_exact_order(y, m, fld.pow_):
            return y
    raise NoRootOfThatOrder(f"no element of order {m} in {fld!r}")  # pragma: no cover


def unembed(a: Felt, source: GF) -> Felt:
    """The record of source whose canonical embedding is a, through
    _embedding_pair's inverse; raises NotASubfield off the image.  Kept for
    the benchmark harness only, like Felt."""
    _, inv = _embedding_pair(source, a.field)
    try:
        return Felt(source, inv[a.val])
    except KeyError:
        raise NotASubfield(f"value {a.val} is not in the embedded copy of {source!r}")


def primitive_mth_root(field: GF, m: int) -> int:
    """Least element of multiplicative order exactly m."""
    n = field.order - 1
    if m < 1 or n % m != 0:
        raise NoRootOfThatOrder(f"no primitive {m}-th root of unity in {field!r}")
    if m == 1:
        return 1
    y = _element_of_order(field, m)
    # all elements of order m live in the unique cyclic subgroup <y>
    best = None
    x = 1
    for k in range(m):
        if k and math.gcd(k, m) == 1 and (best is None or x < best):
            best = x
        x = field.mul(x, y)
    return best

