"""CSS stabilizer parameters from classical codes, plus the four standard
parameter transforms (lengthen / shorten / reduce / combine) and the quantum
Singleton audit k + 2d <= n + 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    LengthMismatch,
    NotDualContaining,
    NotNested,
    PreconditionViolated,
)
from .lincode import (
    DEFAULT_BUDGET,
    LinearCode,
    dual_euclidean,
    duality_class,
    min_distance,
    min_weight_outside,
    _in_span,
    _parity_rows,
)


@dataclass(frozen=True)
class QuantumParams:
    """[[n, k, d]]_q record; k is the exponent (K = q^k).

    d_lower is always a certified lower bound; d_exact is set only when the
    distance was computed or certified exactly.  purity is the pure-to value
    when known ("pure to d" tracks the classical ingredient distances), or
    None when unknown; impure codes carry purity None with impure=True.
    """

    n: int
    k: int
    d_lower: int
    q: int
    d_exact: int | None = None
    purity: int | None = None
    impure: bool = False
    derivation: tuple[str, ...] = ()

    @property
    def d(self) -> int:
        return self.d_exact if self.d_exact is not None else self.d_lower

    def label(self) -> str:
        dtxt = str(self.d_exact) if self.d_exact is not None else f">={self.d_lower}"
        return f"[[{self.n},{self.k},{dtxt}]]_{self.q}"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d_lower": self.d_lower,
            "d_exact": self.d_exact,
            "q": self.q,
            "purity": self.purity,
            "impure": self.impure,
            "derivation": list(self.derivation),
        }

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.d_lower < 1:
            raise PreconditionViolated(f"bad parameters [[{self.n},{self.k},{self.d_lower}]]")
        if self.d_exact is not None and self.k + 2 * self.d_exact > self.n + 2:
            raise PreconditionViolated(
                f"[[{self.n},{self.k},{self.d_exact}]] violates the Singleton bound"
            )


def _engine_d(c: LinearCode, budget: int) -> tuple[int, bool]:
    """c's distance from one engine run of at most `budget` codewords and
    whether it is certified; an uncertified run gives its certified lower
    bound, at least 1."""
    rep = min_distance(c, budget, mode="bound")
    if rep.d_exact is not None:  # certified, or the zero code's sentinel n + 1
        return rep.d_exact, True
    return max(1, rep.d_lower), False


def _css(c1: LinearCode, c2: LinearCode, mode: str, budget: int, pure_to: int) -> QuantumParams:
    """The CSS parameters of nested c1, c2 whose classical distances give
    pure_to; exact mode enumerates the stabilizer distance."""
    n = c1.n
    k = c1.k + c2.k - n
    q = c1.field.order
    if mode == "bound":
        return QuantumParams(n, k, pure_to, q, purity=pure_to,
                             derivation=(f"css({c1.n},{c1.k})x({c2.n},{c2.k})",))
    if mode != "exact":
        raise PreconditionViolated(f"unknown css mode {mode!r}")
    d, _ = min_weight_outside(c1, c2, budget)
    if c2 != c1:
        d = min(d, min_weight_outside(c2, c1, budget)[0])
    if d > n:
        raise PreconditionViolated("CSS difference sets are empty (c1 = c2^perp)")
    return QuantumParams(n, k, d, q, d_exact=d, purity=pure_to,
                         derivation=(f"css-exact({c1.n},{c1.k})x({c2.n},{c2.k})",))


def css(c1: LinearCode, c2: LinearCode, mode: str = "bound",
        budget: int = DEFAULT_BUDGET) -> QuantumParams:
    """CSS construction for c2^perp <= c1: [[n, k1+k2-n]] pure to min(d1,d2).

    The classical distances come from the distance engine within `budget`
    codewords each: certified, or the certified lower bound.  bound mode
    reports their minimum; exact mode certifies the min weight over
    (c1 \\ c2^perp) union (c2 \\ c1^perp) within the budget or raises
    BudgetExceeded.
    """
    if c1.field != c2.field or c1.n != c2.n:
        raise LengthMismatch("CSS inputs live in different ambient spaces")
    if not _in_span(c1.field, _parity_rows(c2), c1):
        raise NotNested("CSS requires dual(C2) contained in C1")
    d1, _ = _engine_d(c1, budget)
    d2 = d1 if c2 == c1 else _engine_d(c2, budget)[0]
    return _css(c1, c2, mode, budget, min(d1, d2))


def from_dual_containing(c: LinearCode, mode: str = "bound",
                         budget: int = DEFAULT_BUDGET) -> QuantumParams:
    """[[n, 2k-n, >= d]] pure to d = d(C) from an EDC code C.

    The engine runs once on C within `budget` codewords.  When it certifies
    d(C) and the mode is bound, it runs on C^perp too: a certified lower
    bound d(C^perp) > d(C) puts a minimum-weight word of C outside C^perp,
    so the stabilizer distance is exactly d(C).  A d(C) that is only a
    lower bound never yields an exactness claim."""
    if not duality_class(c).edc:
        raise NotDualContaining("code does not contain its Euclidean dual")
    d, certified = _engine_d(c, budget)
    params = _css(c, c, mode, budget, d)
    if params.d_exact is None and certified:
        dual = dual_euclidean(c)
        if dual.k and min_distance(dual, budget, mode="bound").d_lower > d:
            params = replace(params, d_exact=d)
    return replace(params, derivation=(f"dual-containing[{c.n},{c.k}]",))


def transform(params: QuantumParams, op: str, other: QuantumParams | None = None) -> QuantumParams:
    """Lengthen / shorten / reduce / combine on stabilizer parameters."""
    deriv = params.derivation + (op,)
    if op == "lengthen":
        if params.k <= 0:
            raise PreconditionViolated("lengthen needs k > 0")
        return replace(params, n=params.n + 1, impure=True, purity=None, derivation=deriv)
    if op == "shorten":
        if params.impure or params.purity is None:
            raise PreconditionViolated("shorten needs a known-pure code")
        if params.n < 2 or params.d < 2:
            raise PreconditionViolated("shorten needs n >= 2 and d >= 2")
        return QuantumParams(
            params.n - 1, params.k + 1, params.d_lower - 1, params.q,
            d_exact=None if params.d_exact is None else params.d_exact - 1,
            purity=(params.purity - 1) if params.purity else None,
            derivation=deriv,
        )
    if op == "reduce":
        if params.k < 1:
            raise PreconditionViolated("reduce needs k >= 1")
        return QuantumParams(
            params.n, params.k - 1, params.d_lower, params.q,
            d_exact=None,  # only d* >= d is guaranteed
            purity=params.purity, impure=params.impure, derivation=deriv,
        )
    if op == "combine":
        if other is None:
            raise PreconditionViolated("combine needs a second parameter set")
        if other.q != params.q:
            raise PreconditionViolated("combine needs matching alphabets")
        return QuantumParams(
            params.n + other.n, params.k + other.k, min(params.d_lower, other.d_lower),
            params.q,
            d_exact=(min(params.d_exact, other.d_exact)
                     if params.d_exact is not None and other.d_exact is not None else None),
            purity=None, derivation=params.derivation + ("combine",) + other.derivation,
        )
    raise PreconditionViolated(f"unknown transform {op!r}")


def transform_chain(params: QuantumParams, ops: str) -> QuantumParams:
    for op in [o.strip() for o in ops.split(",") if o.strip()]:
        params = transform(params, op)
    return params


@dataclass(frozen=True)
class SingletonAudit:
    ok: bool
    slack: int
    quantum_mds: bool

    def to_json(self) -> dict:
        return {"ok": self.ok, "slack": self.slack, "quantum_mds": self.quantum_mds}


def singleton_audit(params: QuantumParams) -> SingletonAudit:
    slack = params.n + 2 - params.k - 2 * params.d
    return SingletonAudit(ok=slack >= 0, slack=slack, quantum_mds=slack == 0)
