"""CSS stabilizer parameters from classical codes, plus the four standard
parameter transforms (lengthen / shorten / reduce / combine) and the quantum
Singleton audit k + 2d <= n + 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    BudgetExceeded,
    BudgetTooSmallForExact,
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
    subspace_leq,
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


def css(c1: LinearCode, c2: LinearCode, mode: str = "bound",
        d1: int | None = None, d2: int | None = None,
        budget: int = DEFAULT_BUDGET) -> QuantumParams:
    """CSS construction for c2^perp <= c1: [[n, k1+k2-n]] pure to min(d1,d2).

    bound mode uses the provided (or enumerated) classical lower bounds; exact
    mode enumerates min weight over (c1 \\ c2^perp) union (c2 \\ c1^perp).
    """
    if c1.field != c2.field or c1.n != c2.n:
        raise LengthMismatch("CSS inputs live in different ambient spaces")
    if not subspace_leq(dual_euclidean(c2), c1):
        raise NotNested("CSS requires dual(C2) contained in C1")
    n = c1.n
    k = c1.k + c2.k - n
    q = c1.field.order

    def classical_d(c, given):
        if given is not None:
            return given
        rep = min_distance(c, budget, mode="auto")
        if rep.d_exact is not None:  # exact, or the zero code's sentinel n + 1
            return rep.d_exact
        return max(1, rep.d_lower)  # the budgeted run's certified lower bound

    dd1 = classical_d(c1, d1)
    dd2 = classical_d(c2, d2)
    pure_to = min(dd1, dd2)
    if mode == "bound":
        return QuantumParams(n, k, pure_to, q, purity=pure_to,
                             derivation=(f"css({c1.n},{c1.k})x({c2.n},{c2.k})",))
    if mode != "exact":
        raise PreconditionViolated(f"unknown css mode {mode!r}")
    try:
        w1, _ = min_weight_outside(c1, c2, budget)
        w2, _ = min_weight_outside(c2, c1, budget)
    except BudgetTooSmallForExact as exc:
        raise BudgetExceeded(str(exc))
    d = min(w1, w2)
    if d > n:
        raise PreconditionViolated("CSS difference sets are empty (c1 = c2^perp)")
    return QuantumParams(n, k, d, q, d_exact=d, purity=pure_to,
                         derivation=(f"css-exact({c1.n},{c1.k})x({c2.n},{c2.k})",))


def from_dual_containing(c: LinearCode, mode: str = "bound", d: int | None = None,
                         d_is_exact: bool = False,
                         budget: int = DEFAULT_BUDGET) -> QuantumParams:
    """[[n, 2k-n, >= d]] pure to d from an EDC code.

    When d is the exact classical distance (d_is_exact) and the dual's exact
    distance is computed to exceed d, the quantum distance is certified equal
    to d; a d that is only a lower bound never yields an exactness claim."""
    if not duality_class(c).edc:
        raise NotDualContaining("code does not contain its Euclidean dual")
    params = css(c, c, mode=mode, d1=d, d2=d, budget=budget)
    d_used = params.d_lower if params.d_exact is None else params.d_exact
    exact = params.d_exact
    if exact is None and d is not None and d_is_exact:
        # certification: if d(C^perp) > d(C) then the quantum distance is d(C)
        dual = dual_euclidean(c)
        if dual.k and dual.field.order**dual.k <= budget:
            ddual = min_distance(dual, budget).d_exact
            if ddual > d:
                exact = d
    return QuantumParams(params.n, params.k, d_used, params.q, d_exact=exact,
                         purity=params.purity,
                         derivation=(f"dual-containing[{c.n},{c.k}]",))


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
    d = params.d_exact if params.d_exact is not None else params.d_lower
    slack = params.n + 2 - params.k - 2 * d
    return SingletonAudit(ok=slack >= 0, slack=slack, quantum_mds=slack == 0)
