"""Finite fields F_{p^t} with deterministic canonical moduli.

Elements are plain integer indices in every API: the coefficient vector
(c_0, ..., c_{t-1}) on the power basis, read little-endian base p, so the
index doubles as the serialization and as the total order used for every
"least element" rule.

The canonical modulus for (p, t) is the lexicographically smallest monic
irreducible polynomial of degree t over F_p, comparing coefficient vectors
from highest to lowest degree.  The search tests each candidate f with
Rabin's test in the residue ring F_p[x]/(f), which needs only products and
powers there: f is irreducible iff x^(p^t) = x and, for each prime r | t,
(x^(p^(t/r)) - x)^(p^t - 1) = 1.  The canonical embedding of a subfield sends
its generator to the least root of its modulus in the target field.  Both
rules are deterministic, so two fields with equal (p, t) are interchangeable.

Addition, negation and the product of F_p[x]/(modulus) (_raw_mul) have one
body each, which takes Python ints and integer arrays alike (uint16 ones for
the prime fields whose dtype is uint16, see PANEL).  Odd-characteristic
extension fields up to ADD_TABLE_MAX_ORDER add through a table built by that
body.  Prime fields multiply integers mod p.  Extension fields up to
LOG_MAX_ORDER multiply through log/antilog arrays that the product body
builds; above it, and in the modulus search, every product is that body.

Frobenius is GF.pow_arr (and lincode.code_power_q on codes).  The maps
between fields are F_p-linear, so each is one small matrix over F_p acting on
an element's base-p digits, built from the images of the source field's power
basis (_LinearMap) and applied to the values that occur, never tabulated over
a whole field: embed is the canonical embedding, restrict its inverse on the
embedded copy (one elimination), trace the relative trace, taken in a
common extension on the embedded copy, and trace_form the maps a -> Tr(a * b)
that the trace formula of qc.assemble_qc applies.
Two pieces are unused by the library and stay for the benchmark harness in
perfbench/: the full add/mul tables of fields up to TABLE_MAX_ORDER
(`tables()`, the array operations on the element grid), and the Felt record
with unembed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, repeat

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
# Columns that elimination (lincode._rref) clears per panel of a matrix wider
# than 4 * PANEL before one product over at most PANEL columns updates the
# rest; narrower matrices are one panel with no product.  Prime fields whose
# uint16 residues hold such a product, PANEL * (p - 1)^2 + (p - 1) < 2^16,
# hold elements as uint16 (GF.dtype): p <= 61.  The same bound covers the
# sums below p^2 of GF.sub_mul_arr.
PANEL = 16
# Columns of one block of _rref's panels: each panel's product updates only
# the rest of its block, and one product per block updates every column right
# of it.  On the family level-2 matrices of cor35 (302 x 605 over F_3) and
# example39 (363 x 726 over F_5), one BLAS thread on a 2-core x86-64 host,
# best of 40: blocks of one panel took 8.9 and 13.9 ms, 64 columns 7.7 and
# 10.2 ms, 128 columns 7.3 and 11.0 ms, and 256 columns 8.7 and 12.2 ms.
COLUMN_BLOCK = 8 * PANEL


# ---------------------------------------------------------------------------
# integer helpers


# Miller-Rabin to the prime bases up to 37 decides every n below _MR_EXACT
# (Sorenson and Webster, Math. Comp. 2017), far above DEFAULT_ORDER_CAP.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Exact primality: trial division by 2 and the odd numbers up to 37,
    which settles n < 37^2 as fast as the scans over small moduli need, then
    deterministic Miller-Rabin."""
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        if f == 37:
            break
        f += 2
    else:
        return True
    if n >= _MR_EXACT:
        raise QCKitError(f"primality of {n} is not decided by the fixed Miller-Rabin bases")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
# the canonical modulus


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin's test for a monic polynomial f of degree t over F_p, run in the
    residue ring R = F_p[x]/(f): f is irreducible iff x^(p^t) = x in R and,
    for each prime r | t, x^(p^(t/r)) - x is a unit of R.  Once x^(p^t) = x,
    f divides x^(p^t) - x, so f is squarefree with irreducible factors of
    degrees d | t and R is a product of fields F_{p^d}; there u is a unit
    iff u^(p^t - 1) = 1, which is Rabin's condition gcd(f, u) = 1."""
    t = len(coeffs) - 1
    if t < 1:
        return False
    if t == 1:
        return True
    if coeffs[0] == 0 or sum(coeffs) % p == 0 or sum(coeffs[::2]) % p == sum(coeffs[1::2]) % p:
        return False  # a root 0, 1 or -1: divisible by x, x - 1 or x + 1
    ring = GF(p, t, tuple(coeffs))
    x = ring.gen
    if ring._raw_pow(x, p**t) != x:
        return False
    return all(ring._raw_pow(ring.sub(ring._raw_pow(x, p ** (t // r)), x), p**t - 1) == 1
               for r in factorize(t))


def _canonical_modulus(p: int, t: int) -> tuple[int, ...]:
    """Least monic irreducible of degree t, comparing (c_{t-1}, ..., c_0)."""
    if t == 1:
        return (0, 1)
    for idx in range(p**t):
        # little-endian base-p decode: ascending idx sorts (c_{t-1}, ..., c_0)
        cand = [idx // p**pos % p for pos in range(t)] + [1]
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
        "_prime",
        "_xrows",
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
        self._prime = self if t == 1 else None
        self._xrows = None

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
    # coeffs and from_coeffs take ints or integer arrays, like add

    def coeffs(self, a) -> tuple:
        p, out = self.p, []
        for _ in range(self.t):
            q = a // p
            out.append(a - q * p)
            a = q
        return tuple(out)

    def from_coeffs(self, cs):
        p, v = self.p, 0
        for c in reversed(list(cs)):
            v = v * p + (c - c // p * p)
        return v

    @property
    def gen(self) -> int:
        """A generator of the field as an F_p-algebra: the residue of x (value p)
        for t > 1, so 1, x, ..., x^(t-1) is a basis over F_p; 1 for prime fields."""
        return self.p if self.t > 1 else 1

    # -- arithmetic ----------------------------------------------------------
    #
    # add, neg and sub take Python ints or integer arrays (numpy broadcasting),
    # unsigned ones included.  In characteristic 2 addition is XOR and
    # negation the identity; other extension fields work digit by digit on
    # the base-p expansion, except neg_arr up to LOG_MAX_ORDER, which takes
    # -a = (p - 1) a through the log arrays.  mul, inv and pow_ take ints;
    # mul_arr and pow_arr are their array forms, and sub_mul_arr is the fused
    # acc - a * b of elimination.  The *_arr methods always return a new array;
    # add_arr, neg_arr, mul_arr and sub_mul_arr return uint16 when the field's
    # dtype and their inputs are, and int64 otherwise.
    # Prime fields multiply integers mod p: mul_arr in int64 up to p = 2^31,
    # where products stay inside int64.  Extension fields up to LOG_MAX_ORDER
    # multiply and raise to powers through the log/antilog arrays, larger
    # fields through _raw_mul and _raw_pow, on ints and arrays alike.

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
        if a < self.p:  # the prime subfield's powers stay in it
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

    def _raw_mul(self, a, b):
        """a * b in F_p[x]/(modulus), for Python ints and integer arrays alike.
        p = 2: Horner over b's bits, a shift with a conditional XOR of the
        modulus per step.  Odd p: the schoolbook product of the digit lists,
        reduced from the top by the monic modulus.  Its sums stay below
        t (p - 1)^2 + p, inside int64 when t >= 2 (p^t <= 2^62) or p <= 2^31."""
        p, t, f = self.p, self.t, self.modulus
        if p == 2:
            fx = sum(c << i for i, c in enumerate(f))  # the modulus, x^t included
            out = 0
            for j in range(t - 1, -1, -1):  # out * x + b_j * a, reduced
                out = out << 1 ^ (out >> t - 1) * fx ^ (b >> j & 1) * a
            return out
        c, db = [0] * (2 * t - 1), self.coeffs(b)
        for i, x in enumerate(self.coeffs(a)):
            for j, y in enumerate(db):
                c[i + j] += x * y  # in place only on the arrays made here
        c = [v - v // p * p for v in c]
        low = [(i, p - fi) for i, fi in enumerate(f[:t]) if fi]  # x^t = sum (p - f_i) x^i
        for k in range(2 * t - 2, t - 1, -1):
            top = c[k] - c[k] // p * p
            for i, g in low:
                c[k - t + i] += top * g
        return self.from_coeffs(c[:t])

    def _raw_pow(self, a, n: int):
        """a^n by square-and-multiply over _raw_mul; needs no log arrays."""
        result = 1
        while n:
            if n & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return result

    def _wide(self, a: np.ndarray) -> np.ndarray:
        """a as Python ints where int64 products overflow (p > 2^31)."""
        return a.astype(object) if self.p > 2**31 else a

    def _powers(self, g: int, n: int) -> np.ndarray:
        """g^0, ..., g^(n-1): the first 16 as a running product of ints, then
        by doubling: the powers below k times g^k are those from k up to 2k,
        one array _raw_mul per step.  An array product costs about as much as
        ten scalar ones in small fields, so doubling from g alone is slower
        up to a few dozen powers and faster beyond a few hundred; seeded with
        16, 8 powers in F_9 take 0.05 ms (0.18 ms from g alone), 80 in F_3^4
        0.34 ms (1.0 ms) and 3,124 in F_5^5 1.4 ms (2.0 ms).  Indices that
        int64 cannot hold are Python ints in an object array, as are the
        factors of products that int64 cannot hold (p > 2^31)."""
        out = np.ones(n, dtype=np.int64 if self.order <= DEFAULT_ORDER_CAP else object)
        k = min(n, 16)
        out[:k] = list(accumulate(repeat(g, k - 1), self._raw_mul, initial=1))
        gk = self._raw_mul(int(out[k - 1]), g)
        while k < n:
            out[k:2 * k] = self._raw_mul(self._wide(out[:min(k, n - k)]), gk)
            gk = self._raw_mul(gk, gk)
            k *= 2
        return out

    def _build_logs(self):
        """exp/log arrays for a primitive element g.  log[0] is the sentinel 2n
        and exp is zero from index 2n on, so exp[log[a] + log[b]] is the
        product a * b for every pair, zero included (n = order - 1)."""
        n = self.order - 1
        g = next((c for c in range(1, self.order) if _has_exact_order(c, n, self._raw_pow)), None)
        if g is None:
            raise InvalidLogTable(f"no primitive element found in {self!r}")
        powers = self._powers(g, n)
        if self._raw_mul(int(powers[-1]), g) != 1:
            raise InvalidLogTable(f"powers of {g} do not cycle back to 1 in {self!r}")
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        exp[:n] = exp[n:2 * n] = powers
        log = np.full(self.order, 2 * n, dtype=np.int64)
        log[powers] = np.arange(n)
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

    # -- base-p digits and F_p matrices of multiplication --------------------

    def _prime_field(self) -> GF:
        """F_p, over which lincode._matmul and _LinearMap multiply this
        field's digits."""
        if self._prime is None:
            self._prime = field_make(self.p, 1)
        return self._prime

    def _digits(self, a: np.ndarray, dtype) -> np.ndarray:
        """The t base-p digits of the indices a (of at least one axis), least
        significant first, along a new axis 1, as dtype; _from_digits
        inverts it.  Each digit is written as one contiguous block per row of
        a, twice as fast as along a last axis."""
        p = self.p
        if a.dtype != object:
            a = a.astype(_index_dtype(self.order), copy=False)  # narrow passes where indices fit
        out = np.empty(a.shape[:1] + (self.t,) + a.shape[1:], dtype)
        for s in range(self.t):
            if p == 2:
                out[:, s] = a >> s & 1
            else:
                q = a // p
                out[:, s] = a - q * p
                a = q
        return out

    def _from_digits(self, d: np.ndarray) -> np.ndarray:
        """The indices whose base-p digits run along axis 1 of d (Horner), in
        the narrowest dtype that holds them and d."""
        out = d[:, -1].astype(np.promote_types(d.dtype, _index_dtype(self.order)))
        for s in range(self.t - 2, -1, -1):
            out *= self.p
            out += d[:, s]
        return out

    def _x_multiples(self, a: np.ndarray) -> np.ndarray:
        """a, a x, ..., a x^(t-1) along a new last axis: the digits of a x^s
        are column s of the t x t matrix over F_p of multiplication by a.  Up
        to LOG_MAX_ORDER they are read from one uint16 array over the whole
        field, built by the product body on first use; above, that body
        computes them for a alone."""
        big = self.order > LOG_MAX_ORDER
        if big or self._xrows is None:
            x = np.asarray(a if big else np.arange(self.order), dtype=np.int64)
            rows = np.stack(list(accumulate(repeat(self.gen, self.t - 1), self._raw_mul, initial=x)),
                            axis=-1)
            if big:
                return rows
            self._xrows = rows.astype(np.uint16)  # indices below LOG_MAX_ORDER = 2^16
        return np.take(self._xrows, a, axis=0)  # about 15 times faster than self._xrows[a]

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
        if self.p == 2:
            return a.copy()  # neg is the identity in characteristic 2
        if self.t > 1 and self.order <= LOG_MAX_ORDER:
            return self.mul_arr(a, self.p - 1)
        return self.neg(a)

    def mul_arr(self, a, b) -> np.ndarray:
        a, b = self._arr(a), self._arr(b)
        if self.order == 2:
            return a & b
        if self.t == 1 and self.p <= 2**31:
            return residue(a * b, self.p)
        if self.order <= LOG_MAX_ORDER:
            exp, log = self._logs()
            return exp[log[a] + log[b]]
        return self._raw_mul(self._wide(a), b).astype(np.int64, copy=False)

    def sub_mul_arr(self, acc, a, b) -> np.ndarray:
        """acc - a * b elementwise, with broadcasting."""
        acc, a, b = self._arr(acc), self._arr(a), self._arr(b)
        p = self.p
        if p == 2:
            return acc ^ (a & b if self.order == 2 else self.mul_arr(a, b))
        if self.t == 1 and p <= 2**31:
            # p - b in [1, p] stands for -b, so the sum stays below p^2
            return residue(acc + a * (p - b), p)
        return self.add_arr(acc, self.mul_arr(a, self.neg_arr(b)))

    def pow_arr(self, a, n: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if n < 0 and (a == 0).any():
            raise DivisionByZero(f"inverse of zero in {self!r}")
        e = n % (self.order - 1)
        if self.order > LOG_MAX_ORDER:
            powers = self._raw_pow(self._wide(a), e)
        else:
            exp, log = self._logs()
            powers = exp[log[a] * e % (self.order - 1)]
        return np.where(a == 0, 0 if n else 1, powers).astype(np.int64, copy=False)


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


def _index_dtype(order: int) -> np.dtype:
    """The narrowest of uint16, int64 and object that holds indices below
    order (object above DEFAULT_ORDER_CAP)."""
    return np.dtype(np.uint16 if order <= 2**16 else np.int64 if order <= DEFAULT_ORDER_CAP else object)


def field_from_order(q: int) -> GF:
    """F_q for a prime power q."""
    fac = factorize(q)
    if len(fac) != 1:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    (p, t), = fac.items()
    return field_make(p, t)


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


# ---------------------------------------------------------------------------
# F_p-linear maps between fields: the canonical embedding, its inverse and the
# relative trace


class _LinearMap:
    """F_p-linear maps src -> dst, built from the images of src's power basis
    1, x, ..., x^(t-1): images[i] is the image of x^i, an element of dst or
    an array of them, one per map.  The maps are held as one matrix over F_p
    with src.t rows, holding the images' base-p digits: an element's images
    are its digit vector times the matrix, one lincode._matmul over F_p.
    Calling it on a value or an array of values gives their images, with the
    maps' shape appended; an int with one map gives an int.  Indices that
    int64 cannot hold (splitting fields may exceed DEFAULT_ORDER_CAP) are
    Python ints in object arrays."""

    def __init__(self, src: GF, dst: GF, images):
        self.fp = src._prime_field()
        self.dtype = np.dtype(np.int64 if max(src.order, dst.order) <= DEFAULT_ORDER_CAP else object)
        self.src, self.dst = src, dst
        images = np.asarray(images, dtype=self.dtype)
        self.shape = images.shape[1:]
        self.mat = dst._digits(images.reshape(-1), np.int64).reshape(src.t, -1)

    def __call__(self, a):
        from .lincode import _matmul  # lincode imports this module

        a = np.asarray(a, dtype=self.dtype)
        d = _matmul(self.fp, self.src._digits(a.reshape(-1), np.int64), self.mat)
        out = self.dst._from_digits(d.reshape(-1, self.dst.t)).astype(self.dtype, copy=False)
        out = out.reshape(a.shape + self.shape)
        return out if out.ndim else int(out)


@functools.cache
def _embedding(src: GF, dst: GF) -> _LinearMap:
    if src.p != dst.p or dst.t % src.t != 0:
        raise NoEmbedding(f"no embedding {src!r} -> {dst!r}")
    # a prime field's element c is c in every extension and a field embeds in
    # itself by the identity; otherwise x goes to the least root of src's modulus
    root = dst.gen if src == dst or src.t == 1 else _least_root_of_modulus(src, dst)
    return _LinearMap(src, dst, list(accumulate(repeat(root, src.t - 1), dst.mul, initial=1)))


@functools.cache
def _restriction(src: GF, dst: GF) -> _LinearMap:
    """A left inverse of the embedding src -> dst, as a map dst -> src.  The
    embedding's digit matrix M has rank src.t, so reducing [M | I] gives
    [R | T] with T M = R and R the identity on its pivot columns P: the
    preimage of y = x M is x = y[P] T.  The map sends dst's basis element
    x^P[k] to the element of src with digits T[k], and the others to 0.
    Under _embedding's identities M is already [I | 0], so T = I."""
    from .lincode import _rref  # lincode imports this module

    if src == dst or src.t == 1:
        return _LinearMap(dst, src, [src.p**i if i < src.t else 0 for i in range(dst.t)])
    emb = _embedding(src, dst)
    red, pivots = _rref(emb.fp, np.concatenate([emb.mat, np.eye(src.t, dtype=np.int64)], axis=1))
    images = [0] * dst.t
    for k, col in enumerate(pivots):
        images[col] = src.from_coeffs(int(c) for c in red[k, dst.t:])
    return _LinearMap(dst, src, images)


def embed(src: GF, dst: GF, a):
    """The canonical embedding of src's element(s) a in dst."""
    return _embedding(src, dst)(a)


def restrict(src: GF, dst: GF, b):
    """The element(s) of src whose canonical embedding in dst is b; raises
    NotASubfield for a value off the embedded copy of src."""
    a = _restriction(src, dst)(b)
    off = np.asarray(_embedding(src, dst)(a) != b)
    if off.any():
        value = np.asarray(b)[off][0] if off.ndim else b
        raise NotASubfield(f"value {value} is not in the embedded copy of {src!r} in {dst!r}")
    return a


@functools.cache
def _trace(src: GF, dst: GF, base: GF) -> _LinearMap:
    """Tr_{src/base} on src's power basis: each image is the sum of the
    conjugates of the basis element's embedded copy in dst, and y -> y^|base|
    is itself F_p-linear on dst, so the sum is one of digit matrices."""
    from .lincode import _matmul  # lincode imports this module

    if src.p != base.p or src.t % base.t != 0:
        raise NoEmbedding(f"{base!r} is not a subfield of {src!r}")
    emb = _embedding(src, dst)
    xq = dst.pow_(dst.gen, base.order)  # (x^i)^|base| = xq^i
    frobenius = _LinearMap(dst, dst, list(accumulate(repeat(xq, dst.t - 1), dst.mul, initial=1)))
    y = acc = emb.mat  # the digits of the embedded x^i
    for _ in range(src.t // base.t - 1):
        y = _matmul(emb.fp, y, frobenius.mat)
        acc = acc + y
    return _LinearMap(src, base, restrict(base, dst, dst._from_digits(acc % src.p).astype(emb.dtype)))


def trace(src: GF, dst: GF, base: GF, a):
    """The relative trace Tr_{src/base} of src's element(s) a: the sum of the
    conjugates a^(|base|^j), 0 <= j < [src : base], taken in dst on the
    embedded copy of src and pulled back along base's embedding in dst."""
    return _trace(src, dst, base)(a)


@functools.cache
def _trace_gram(src: GF, dst: GF, base: GF) -> np.ndarray:
    """The trace form on src's power basis: Tr_{src/base}(x^(i + j)) at
    (i, j), for i, j < src.t."""
    traces = _trace(src, dst, base)(list(accumulate(repeat(src.gen, 2 * src.t - 2), src.mul, initial=1)))
    return traces[np.add.outer(np.arange(src.t), np.arange(src.t))]


def trace_form(src: GF, dst: GF, base: GF, b):
    """The F_p-linear maps a -> Tr_{src/base}(a * b_j), one per element b_j
    of b, traced as in trace: called on a value or an array a, they give
    Tr(a * b_j) with b's shape appended.  Their images on src's power basis,
    Tr(x^i * b), are linear in b with the images Tr(x^(i + j)), so no
    product is taken in src."""
    images = _LinearMap(src, base, _trace_gram(src, dst, base))(b)
    return _LinearMap(src, base, np.moveaxis(images, -1, 0))


def _least_root_of_modulus(src: GF, dst: GF) -> int:
    """Least root of src's modulus inside dst (the canonical embedding target),
    for src of degree t > 1.  The roots are nonzero elements of the subfield
    with |src| elements, so they lie in its unit group: the subgroup of order
    |src| - 1 of dst's units."""
    sub_n = src.order - 1
    xs = dst._powers(_element_of_order(dst, sub_n), sub_n)
    acc = 0
    for c in reversed(src.modulus):  # Horner; c < p is the prime-subfield element c
        acc = dst.add(dst._raw_mul(acc, xs), c)
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
    """The record of source whose canonical embedding is a: restrict on one
    value.  Kept for the benchmark harness only, like Felt."""
    return Felt(source, restrict(source, a.field, a.val))


def primitive_mth_root(field: GF, m: int) -> int:
    """Least element of multiplicative order exactly m."""
    n = field.order - 1
    if m < 1 or n % m != 0:
        raise NoRootOfThatOrder(f"no primitive {m}-th root of unity in {field!r}")
    if m == 1:
        return 1
    # all elements of order m live in the unique cyclic subgroup <y>: the y^k
    # with gcd(k, m) = 1
    powers = accumulate(repeat(_element_of_order(field, m), m - 1), field.mul, initial=1)
    return min(x for k, x in enumerate(powers) if math.gcd(k, m) == 1)

