"""Finite fields F_{p^t} with deterministic canonical moduli.

Elements are plain integer indices: the coefficient vector (c_0, ..., c_{t-1})
on the power basis, read little-endian base p, so the index doubles as the
serialization and as the total order used for every "least element" rule.

The canonical modulus for (p, t) is the lexicographically smallest monic
irreducible polynomial of degree t over F_p, comparing coefficient vectors
from highest to lowest degree.  The canonical embedding of a subfield sends
its generator to the least root of its modulus in the target field.  Both
rules are deterministic, so two fields with equal (p, t) are interchangeable.

Fields up to LOG_MAX_ORDER carry lazily built log/antilog arrays, which the
elementwise array arithmetic (add_arr, mul_arr, ...) uses; odd-characteristic
extension fields up to ADD_TABLE_MAX_ORDER also build an add table for it.
Fields up to TABLE_MAX_ORDER can also build full add/mul tables (`tables()`);
the library itself no longer reads them, and they stay for the benchmark
harness in perfbench/.  The scalar API below never requires either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZero,
    InvalidLogTable,
    InvalidSubfieldOrder,
    MixedFields,
    NoEmbedding,
    NonPrimeCharacteristic,
    NoRootOfThatOrder,
    NotASubfield,
    OrderCapExceeded,
    QCKitError,
)

DEFAULT_ORDER_CAP = 2**62  # keeps element indices inside int64 for numpy paths
TABLE_MAX_ORDER = 1024  # full q x q numpy tables (quadratic build cost)
BRUTE_ROOT_MAX = 4096  # brute-force root scans for embeddings
LOG_MAX_ORDER = 65536  # log/antilog arrays (scalar and array multiplication)
ADD_TABLE_MAX_ORDER = 256  # q x q int64 add table for odd extension fields: 512 KB at most


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
        u = [c % p for c in u]
        if _pgcd(coeffs, _ptrim(u), p):
            g = _pgcd(coeffs, _ptrim([c % p for c in u]), p)
            if len(g) - 1 != 0:
                return False
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
        "_exp",
        "_log",
        "_tables",
        "_add",
        "_frob_maps",
    )

    def __init__(self, p: int, t: int, modulus: tuple[int, ...]):
        self.p = p
        self.t = t
        self.order = p**t
        self.modulus = modulus
        self._exp = None
        self._log = None
        self._tables = None
        self._add = None
        self._frob_maps = {}

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
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    @property
    def gen(self) -> int:
        """A generator of the field as an F_p-algebra: the residue of x (value p)
        for t > 1, so 1, x, ..., x^(t-1) is a basis over F_p; 1 for prime fields."""
        return self.p if self.t > 1 else 1

    def elements(self):
        return range(self.order)

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.t == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.t):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.t == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.t):
            out += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.t == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        exp, log = self._logs()
        if exp is not None:
            return int(exp[(log[a] + log[b]) % (self.order - 1)])
        prod = _pmul(list(self.coeffs(a)), list(self.coeffs(b)), self.p)
        return self.from_coeffs(_pmod(prod, list(self.modulus), self.p))

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
            return pow(a, n, self.p) if n else 1
        exp, log = self._logs()
        if exp is not None:
            return int(exp[(log[a] * n) % (self.order - 1)])
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def scalar_int(self, c: int) -> int:
        """The prime-subfield element c * 1 (constant coefficient vector)."""
        return c % self.p

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

    def _build_logs(self):
        """exp/log arrays for a primitive element g.  log[0] is the sentinel 2n
        and exp is zero from index 2n on, so exp[log[a] + log[b]] is the
        product a * b for every pair, zero included (n = order - 1)."""
        n = self.order - 1
        prime_divs = list(factorize(n))
        g = None
        for cand in range(2, self.order) if n > 1 else (1,):  # F_2: units are {1}
            ok = True
            for r in prime_divs:
                x = cand
                e = n // r
                # power by repeated squaring with raw mul
                acc = 1
                base = x
                while e:
                    if e & 1:
                        acc = self._raw_mul(acc, base)
                    base = self._raw_mul(base, base)
                    e >>= 1
                if acc == 1:
                    ok = False
                    break
            if ok:
                g = cand
                break
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
            q = self.order
            add = np.zeros((q, q), dtype=np.int64)
            mul = np.zeros((q, q), dtype=np.int64)
            neg = np.zeros(q, dtype=np.int64)
            inv = np.zeros(q, dtype=np.int64)
            for a in range(q):
                neg[a] = self.neg(a)
                if a:
                    inv[a] = self.inv(a)
                for b in range(q):
                    add[a, b] = self.add(a, b)
                    mul[a, b] = self.mul(a, b)
            self._tables = (add, mul, neg, inv)
        return self._tables

    @property
    def has_tables(self) -> bool:
        return self.order <= TABLE_MAX_ORDER

    # -- elementwise array arithmetic -----------------------------------------
    #
    # Element-index arrays in, new element-index arrays out, with numpy
    # broadcasting.  In characteristic 2 addition is XOR and negation the
    # identity.  Other extension fields work digit by digit on the base-p
    # expansion; up to ADD_TABLE_MAX_ORDER they add through a table instead.
    # Multiplication and powers go through the log/antilog arrays; orders
    # above LOG_MAX_ORDER have none and multiply entry by entry.

    def _add_table(self) -> np.ndarray:
        """Flat add table of an odd-characteristic extension field, built from
        the digits of every element index at once: a + b is at a * order + b."""
        if self._add is None:
            x = np.arange(self.order, dtype=np.int64)
            add = np.zeros((self.order, self.order), dtype=np.int64)
            pw = 1
            for _ in range(self.t):
                digit = x // pw % self.p
                add += (digit[:, None] + digit) % self.p * pw
                pw *= self.p
            self._add = add.ravel()
        return self._add

    def add_arr(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        p = self.p
        if p == 2:
            return a ^ b
        if self.t == 1:
            return (a + b) % p
        if self.order <= ADD_TABLE_MAX_ORDER:
            return self._add_table()[a * self.order + b]
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        pw = 1
        for _ in range(self.t):
            out += (a // pw + b // pw) % p * pw  # higher digits add multiples of p
            pw *= p
        return out

    def neg_arr(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        p = self.p
        if p == 2:
            return a.copy()
        if self.t == 1:
            return -a % p
        out = np.zeros(a.shape, dtype=np.int64)
        pw = 1
        for _ in range(self.t):
            out += -(a // pw) % p * pw
            pw *= p
        return out

    def mul_arr(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.order > LOG_MAX_ORDER:
            return np.frompyfunc(self.mul, 2, 1)(a.astype(object), b.astype(object)).astype(np.int64)
        if self.order == 2:
            return a & b
        if self.t == 1:
            return a * b % self.p
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
# element wrapper


@dataclass(frozen=True)
class Felt:
    """A field element: owning field plus integer index."""

    field: GF
    val: int

    def _check(self, other: "Felt"):
        if not isinstance(other, Felt):
            raise TypeError(f"cannot combine Felt with {type(other).__name__}")
        if other.field != self.field:
            raise MixedFields(f"elements of {self.field!r} and {other.field!r}")

    def __add__(self, other: "Felt") -> "Felt":
        self._check(other)
        return Felt(self.field, self.field.add(self.val, other.val))

    def __sub__(self, other: "Felt") -> "Felt":
        self._check(other)
        return Felt(self.field, self.field.sub(self.val, other.val))

    def __neg__(self) -> "Felt":
        return Felt(self.field, self.field.neg(self.val))

    def __mul__(self, other: "Felt") -> "Felt":
        self._check(other)
        return Felt(self.field, self.field.mul(self.val, other.val))

    def __truediv__(self, other: "Felt") -> "Felt":
        self._check(other)
        return Felt(self.field, self.field.mul(self.val, self.field.inv(other.val)))

    def __pow__(self, n: int) -> "Felt":
        return Felt(self.field, self.field.pow_(self.val, n))

    def inverse(self) -> "Felt":
        return Felt(self.field, self.field.inv(self.val))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.val)

    def is_zero(self) -> bool:
        return self.val == 0

    def __repr__(self) -> str:
        return f"Felt({self.field!r}, {self.val})"


def felt(field: GF, val: int) -> Felt:
    if not 0 <= val < field.order:
        raise QCKitError(f"element index {val} out of range for {field!r}")
    return Felt(field, val)


# ---------------------------------------------------------------------------
# Frobenius, trace, embeddings, roots of unity


def frobenius(a: Felt, base_order: int, k: int = 1) -> Felt:
    """a raised to base_order^k; base_order must be a subfield order."""
    fld = a.field
    _subfield_degree(fld, base_order)
    if a.val == 0:
        return a
    return Felt(fld, fld.pow_(a.val, pow(base_order, k, fld.order - 1)))


def _subfield_degree(fld: GF, base_order: int) -> int:
    fac = factorize(base_order)
    if len(fac) != 1 or next(iter(fac)) != fld.p:
        raise InvalidSubfieldOrder(f"{base_order} is not a power of char {fld.p}")
    b = fac[fld.p]
    if fld.t % b != 0:
        raise InvalidSubfieldOrder(f"F_{base_order} is not a subfield of {fld!r}")
    return b


_EMBED_CACHE: dict[tuple[int, int, int, int], tuple[np.ndarray, dict[int, int]]] = {}


def _embedding_pair(src: GF, dst: GF):
    """(forward array over all src values, inverse dict) for the canonical embedding."""
    if src.p != dst.p or dst.t % src.t != 0:
        raise NoEmbedding(f"no embedding {src!r} -> {dst!r}")
    key = (src.p, src.t, dst.p, dst.t)
    hit = _EMBED_CACHE.get(key)
    if hit is not None:
        return hit
    if src == dst:
        fwd = np.arange(src.order, dtype=np.int64)
        inv = {i: i for i in range(src.order)}
        _EMBED_CACHE[key] = (fwd, inv)
        return fwd, inv
    if src.order > TABLE_MAX_ORDER * 16:
        raise OrderCapExceeded(f"embedding table too large for source order {src.order}")
    root = _least_root_of_modulus(src, dst)
    # F_p-linear map determined by images of the power basis
    basis = [dst.one]
    for _ in range(1, src.t):
        basis.append(dst.mul(basis[-1], root))
    fwd = np.zeros(src.order, dtype=np.int64)
    inv: dict[int, int] = {}
    for a in range(src.order):
        cs = src.coeffs(a)
        img = 0
        for c, b in zip(cs, basis):
            if c:
                term = b
                acc = 0
                for _ in range(c):
                    acc = dst.add(acc, term)
                img = dst.add(img, acc)
        fwd[a] = img
        inv[img] = a
    _EMBED_CACHE[key] = (fwd, inv)
    return fwd, inv


def _least_root_of_modulus(src: GF, dst: GF) -> int:
    """Least root of src's modulus inside dst (the canonical embedding target)."""
    if src.t == 1:
        return 1  # prime field: 1 -> 1 fixes everything
    mod = list(src.modulus)

    def eval_mod(x: int) -> int:
        acc = 0
        for c in reversed(mod):
            acc = dst.add(dst.mul(acc, x), dst.scalar_int(c))
        return acc

    if dst.order <= BRUTE_ROOT_MAX:
        for x in range(dst.order):
            if eval_mod(x) == 0:
                return x
        raise NoEmbedding(f"modulus of {src!r} has no root in {dst!r}")  # pragma: no cover
    # enumerate the multiplicative subgroup of the subfield with src's order
    sub_n = src.order - 1
    h = _element_of_order(dst, sub_n)
    best = None
    x = 1
    for _ in range(sub_n):
        if eval_mod(x) == 0 and (best is None or x < best):
            best = x
        x = dst.mul(x, h)
    if best is None:
        raise NoEmbedding(f"modulus of {src!r} has no root in {dst!r}")  # pragma: no cover
    return best


def _element_of_order(fld: GF, m: int) -> int:
    """Deterministic element of multiplicative order exactly m."""
    n = fld.order - 1
    if n % m != 0:
        raise NoRootOfThatOrder(f"{m} does not divide {fld!r} group order {n}")
    if m == 1:
        return 1
    prime_divs = list(factorize(m))
    cofactor = n // m
    for cand in range(2, fld.order):
        y = fld.pow_(cand, cofactor)
        if y == 1:
            continue
        if all(fld.pow_(y, m // r) != 1 for r in prime_divs):
            return y
    raise NoRootOfThatOrder(f"no element of order {m} in {fld!r}")  # pragma: no cover


def embed(a: Felt, target: GF) -> Felt:
    """Canonical embedding of a into target (least-root rule)."""
    fwd, _ = _embedding_pair(a.field, target)
    return Felt(target, int(fwd[a.val]))


def unembed(a: Felt, source: GF) -> Felt:
    """Inverse of embed on its image; raises NotASubfield off the image."""
    _, inv = _embedding_pair(source, a.field)
    try:
        return Felt(source, inv[a.val])
    except KeyError:
        raise NotASubfield(f"value {a.val} is not in the embedded copy of {source!r}")


def trace_rel(a: Felt, sub: GF) -> Felt:
    """Relative trace down to the subfield: sum of a^(q^i), q = sub order."""
    fld = a.field
    if sub.p != fld.p or fld.t % sub.t != 0:
        raise NotASubfield(f"{sub!r} is not a subfield of {fld!r}")
    s = fld.t // sub.t
    q = sub.order
    acc = a.val
    x = a.val
    for _ in range(s - 1):
        x = fld.pow_(x, q)
        acc = fld.add(acc, x)
    return unembed(Felt(fld, acc), sub)


def primitive_mth_root(field: GF, m: int) -> Felt:
    """Least element of multiplicative order exactly m."""
    n = field.order - 1
    if m < 1 or n % m != 0:
        raise NoRootOfThatOrder(f"no primitive {m}-th root of unity in {field!r}")
    if m == 1:
        return Felt(field, 1)
    y = _element_of_order(field, m)
    # all elements of order m live in the unique cyclic subgroup <y>
    best = None
    x = 1
    for k in range(m):
        if k and _gcd(k, m) == 1 and (best is None or x < best):
            best = x
        x = field.mul(x, y)
    return Felt(field, best)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
