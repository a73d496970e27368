"""Quasi-cyclic codes through the CRT decomposition of (F_q[x]/(x^m-1))^ell.

A QC code of index ell is assembled from constituent codes, one per
irreducible factor of x^m - 1, by spanning the trace formula

    c_g = sum_i Tr(x_i alpha^{-g u_i}) + sum_j (Tr(y'_j alpha^{-g v_j})
                                                + Tr(y''_j alpha^{-g w_j}))

over an F_q-basis of each constituent.  Conversely the constituents of any
QC code are recovered by evaluating phi-columns at alpha^exponent and
pulling the values back along the canonical subfield embeddings.

Exponent convention: v_j is the smallest exponent whose minimal polynomial
is the pair's g_j; the partner exponent is w_j = -v_j mod m exactly.  That
choice makes the pair-slot duality statements hold with plain Euclidean
duals, with no Frobenius twist: the constituents of the Euclidean dual are
(C''_j)^perp on the g_j slot, (C'_j)^perp on the g*_j slot, and Hermitian
duals on self-reciprocal slots (Euclidean on the degree-one x -+ 1 slots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstituentNotHSO,
    DualMismatch,
    FieldMismatch,
    LengthMismatch,
    OrderingViolated,
    RankMismatch,
    SlotSNotESO,
    UnknownConstituentDistance,
)
from .gf import GF, _embedding_pair, field_make
from .lincode import (
    DEFAULT_BUDGET,
    LinearCode,
    code_from_rows,
    concat_copies,
    dual_euclidean,
    dual_hermitian,
    duality_class,
    min_distance,
    _gram,
    _in_span,
    _matmul,
    _parity_rows,
)
from .poly import FactorSet, Poly, factor_xm1

DEFAULT_MATERIALIZE_MAX = 2048


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class Slot:
    """One CRT component: an irreducible factor with its evaluation exponent."""

    kind: str  # "pair_g" | "pair_gstar" | "selfrec"
    index: int  # pair number or self-reciprocal number (x-1 last)
    factor: Poly
    exponent: int
    degree: int
    cfield: GF
    exceptional: bool  # x - 1, or x + 1 with q odd: Euclidean duality applies

    @property
    def label(self) -> str:
        base = {"pair_g": "g", "pair_gstar": "g*", "selfrec": "f"}[self.kind]
        return f"{base}{self.index + 1}"


class CrtDecomposition:
    """Factored structure of (F_q[x]/(x^m-1))^ell with a fixed primitive root."""

    def __init__(self, q_field: GF, m: int, ell: int):
        if ell < 1:
            raise LengthMismatch("index ell must be >= 1")
        self.q_field = q_field
        self.m = m
        self.ell = ell
        self.factors: FactorSet = factor_xm1(q_field, m)
        self.w = self.factors.splitting_w
        self.common_field: GF = self.factors.splitting_field
        self.alpha: int = self.factors.alpha
        K = self.common_field
        self._alpha_pows = [1] * m
        for i in range(1, m):
            self._alpha_pows[i] = K.mul(self._alpha_pows[i - 1], self.alpha)
        slots = []
        for j, (g, gs) in enumerate(self.factors.pairs):
            v = self.factors.rep(g)
            d = g.degree
            cf = field_make(q_field.p, q_field.t * d)
            slots.append(Slot("pair_g", j, g, v, d, cf, False))
            slots.append(Slot("pair_gstar", j, gs, (m - v) % m, d, cf, False))
        for i, f in enumerate(self.factors.selfrec):
            u = self.factors.rep(f)
            d = f.degree
            cf = field_make(q_field.p, q_field.t * d)
            exceptional = d == 1 and (2 * u) % m == 0
            slots.append(Slot("selfrec", i, f, u, d, cf, exceptional))
        self.slots: tuple[Slot, ...] = tuple(slots)
        self._trace_tabs: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return self.m * self.ell

    @property
    def pair_slots(self) -> list[tuple[Slot, Slot]]:
        ps = [s for s in self.slots if s.kind == "pair_g"]
        qs = [s for s in self.slots if s.kind == "pair_gstar"]
        return list(zip(ps, qs))

    @property
    def selfrec_slots(self) -> list[Slot]:
        return [s for s in self.slots if s.kind == "selfrec"]

    def alpha_pow(self, e: int) -> int:
        return self._alpha_pows[e % self.m]

    def _trace_table(self, cfield: GF) -> np.ndarray:
        """Relative trace down to F_q of every element of the constituent
        field, indexed by its value in cfield; computed in K on the embedded
        copy."""
        key = cfield.t
        tab = self._trace_tabs.get(key)
        if tab is not None:
            return tab
        K, base = self.common_field, self.q_field
        fwd, _ = _embedding_pair(cfield, K)
        _, base_inv = _embedding_pair(base, K)
        acc = y = fwd
        for _ in range(cfield.t // base.t - 1):
            y = K.pow_arr(y, base.order)
            acc = K.add_arr(acc, y)
        tab = np.array([base_inv[int(z)] for z in acc], dtype=np.int64)
        self._trace_tabs[key] = tab
        return tab

    def to_json(self) -> dict:
        return {
            "q": self.q_field.to_json(),
            "m": self.m,
            "ell": self.ell,
            "w": self.w,
            "common_field": self.common_field.to_json(),
            "alpha": self.alpha,
            "slots": [
                {
                    "label": s.label,
                    "kind": s.kind,
                    "factor": list(s.factor.coeffs),
                    "exponent": s.exponent,
                    "degree": s.degree,
                    "constituent_order": s.cfield.order,
                    "exceptional": s.exceptional,
                }
                for s in self.slots
            ],
        }


def decompose_ring(q_field: GF, m: int, ell: int) -> CrtDecomposition:
    return CrtDecomposition(q_field, m, ell)


# ---------------------------------------------------------------------------
# the phi map and the Hermitian product on R^ell


def phi(vec, m: int, ell: int) -> np.ndarray:
    """Flat vector of length m*ell -> (ell, m) array of polynomial coefficients."""
    vec = np.asarray(vec, dtype=np.int64)
    if vec.shape != (m * ell,):
        raise LengthMismatch(f"expected length {m * ell}, got {vec.shape}")
    return vec.reshape(m, ell).T.copy()


def phi_inv(arr: np.ndarray, m: int, ell: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.int64)
    if arr.shape != (ell, m):
        raise LengthMismatch(f"expected shape ({ell}, {m}), got {arr.shape}")
    return arr.T.reshape(m * ell).copy()


def ring_conj(field: GF, c: np.ndarray) -> np.ndarray:
    """Conjugation on F_q[x]/(x^m-1): x -> x^{m-1}, extended linearly; along
    the last axis."""
    return np.roll(np.asarray(c, dtype=np.int64)[..., ::-1], 1, axis=-1)


def _circulant(c: np.ndarray) -> np.ndarray:
    """Circulants along the last axis: row i is c shifted right by i, so
    a @ it is the cyclic convolution of a and c."""
    m = c.shape[-1]
    return c[..., (np.arange(m)[None, :] - np.arange(m)[:, None]) % m]


def ring_mul(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cyclic convolution: product in F_q[x]/(x^m-1)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return _matmul(field, a[None, :], _circulant(b))[0]


def r_hermitian_ip(field: GF, x_tuple: np.ndarray, y_tuple: np.ndarray) -> np.ndarray:
    """Sum_j x_j * conj(y_j) in F_q[x]/(x^m-1); tuples are (ell, m) arrays."""
    x_tuple = np.asarray(x_tuple, dtype=np.int64)
    y_tuple = np.asarray(y_tuple, dtype=np.int64)
    if x_tuple.shape != y_tuple.shape:
        raise LengthMismatch("tuples must have matching shape")
    m = x_tuple.shape[1]
    circ = _circulant(ring_conj(field, y_tuple)).reshape(-1, m)  # stacked over j
    return _matmul(field, x_tuple.reshape(1, -1), circ)[0]


def shift(vec: np.ndarray, s: int) -> np.ndarray:
    return np.roll(np.asarray(vec), s)


# ---------------------------------------------------------------------------
# assignments


@dataclass(frozen=True)
class DistanceInfo:
    value: int
    exact: bool
    how: str = ""

    def to_json(self) -> dict:
        return {"value": self.value, "exact": self.exact, "how": self.how}


@dataclass(frozen=True)
class PairAssignment:
    """C'_j plus the derivation of C''_j ("dual" or an explicit code)."""

    cprime: LinearCode
    cdouble: LinearCode | None = None  # None: materialize as dual_euclidean(cprime)
    cprime_distance: DistanceInfo | None = None
    cdouble_distance: DistanceInfo | None = None

    @property
    def dual_mode(self) -> bool:
        return self.cdouble is None

    def cdouble_code(self) -> LinearCode:
        return dual_euclidean(self.cprime) if self.cdouble is None else self.cdouble

    @property
    def cdouble_k(self) -> int:
        """dim C'': ell - dim C' in dual mode, read without building the dual."""
        return self.cprime.n - self.cprime.k if self.cdouble is None else self.cdouble.k


@dataclass(frozen=True)
class SelfrecAssignment:
    code: LinearCode
    distance: DistanceInfo | None = None


@dataclass(frozen=True)
class ConstituentAssignment:
    pairs: tuple[PairAssignment, ...]
    selfrec: tuple[SelfrecAssignment, ...]

    def validate(self, decomp: CrtDecomposition):
        if len(self.pairs) != len(decomp.pair_slots):
            raise FieldMismatch("pair assignment count does not match the decomposition")
        if len(self.selfrec) != len(decomp.selfrec_slots):
            raise FieldMismatch("self-reciprocal assignment count mismatch")
        for pa, (sg, _) in zip(self.pairs, decomp.pair_slots):
            for code in (pa.cprime, pa.cdouble) if pa.cdouble is not None else (pa.cprime,):
                if code.field != sg.cfield:
                    raise FieldMismatch(f"slot {sg.label}: code over {code.field!r}, expected {sg.cfield!r}")
                if code.n != decomp.ell:
                    raise LengthMismatch(f"slot {sg.label}: length {code.n} != {decomp.ell}")
        for sa, slot in zip(self.selfrec, decomp.selfrec_slots):
            if sa.code.field != slot.cfield:
                raise FieldMismatch(f"slot {slot.label}: code over {sa.code.field!r}, expected {slot.cfield!r}")
            if sa.code.n != decomp.ell:
                raise LengthMismatch(f"slot {slot.label}: length {sa.code.n} != {decomp.ell}")

    def slot_codes(self, decomp: CrtDecomposition) -> list[tuple[Slot, LinearCode]]:
        out = []
        for pa, (sg, sgs) in zip(self.pairs, decomp.pair_slots):
            out.append((sg, pa.cprime))
            out.append((sgs, pa.cdouble_code()))
        for sa, slot in zip(self.selfrec, decomp.selfrec_slots):
            out.append((slot, sa.code))
        return out


def assignment_all_full(decomp: CrtDecomposition) -> ConstituentAssignment:
    from .lincode import full_space

    pairs = tuple(
        PairAssignment(full_space(sg.cfield, decomp.ell), full_space(sg.cfield, decomp.ell))
        for sg, _ in decomp.pair_slots
    )
    selfrec = tuple(SelfrecAssignment(full_space(s.cfield, decomp.ell)) for s in decomp.selfrec_slots)
    return ConstituentAssignment(pairs, selfrec)


def assignment_all_zero(decomp: CrtDecomposition) -> ConstituentAssignment:
    from .lincode import zero_code

    pairs = tuple(
        PairAssignment(zero_code(sg.cfield, decomp.ell), zero_code(sg.cfield, decomp.ell))
        for sg, _ in decomp.pair_slots
    )
    selfrec = tuple(SelfrecAssignment(zero_code(s.cfield, decomp.ell)) for s in decomp.selfrec_slots)
    return ConstituentAssignment(pairs, selfrec)


# ---------------------------------------------------------------------------
# assembly and extraction


@dataclass(frozen=True)
class QcCode:
    """A QC code: the flat [m*ell, k] code plus optional CRT provenance."""

    lin: LinearCode
    m: int
    ell: int
    decomp: CrtDecomposition | None = None
    assignment: ConstituentAssignment | None = None

    @property
    def n(self) -> int:
        return self.lin.n

    @property
    def k(self) -> int:
        return self.lin.k

    @property
    def field(self) -> GF:
        return self.lin.field

    def __repr__(self) -> str:
        return f"QcCode([{self.n},{self.k}] m={self.m} ell={self.ell} over {self.field!r})"


def dim_from_constituents(decomp: CrtDecomposition, assignment: ConstituentAssignment) -> int:
    assignment.validate(decomp)
    # a pair's g and g* slots share one degree
    pairs = sum(sg.degree * (pa.cprime.k + pa.cdouble_k)
                for pa, (sg, _) in zip(assignment.pairs, decomp.pair_slots))
    return pairs + sum(slot.degree * sa.code.k
                       for sa, slot in zip(assignment.selfrec, decomp.selfrec_slots))


def assemble_qc(decomp: CrtDecomposition, assignment: ConstituentAssignment) -> QcCode:
    """Span the trace formula over an F_q-basis of every constituent code."""
    assignment.validate(decomp)
    K = decomp.common_field
    m, ell = decomp.m, decomp.ell
    blocks = []
    for slot, code in assignment.slot_codes(decomp):
        if code.k == 0:
            continue
        F = slot.cfield
        _, back = _embedding_pair(F, K)
        trace_tab = decomp._trace_table(F)
        # alpha^(-g u) lies in the embedded copy of F, so the products are taken in F
        apow = np.array([back[decomp.alpha_pow(-g * slot.exponent)] for g in range(m)], dtype=np.int64)
        basis = np.array([F.pow_(F.gen, i) for i in range(slot.degree)], dtype=np.int64)
        coef = F.mul_arr(basis[:, None], apow[None, :])  # (degree, m)
        # entry (row, basis element, g, j) of the trace formula
        vals = trace_tab[F.mul_arr(code.gen[:, None, None, :], coef[None, :, :, None])]
        blocks.append(vals.reshape(-1, m * ell))
    rows = np.concatenate(blocks) if blocks else np.zeros((0, m * ell), dtype=np.int64)
    lin = code_from_rows(decomp.q_field, m * ell, rows)
    expected = dim_from_constituents(decomp, assignment)
    if lin.k != expected:
        raise RankMismatch(f"rank {lin.k} != constituent dimension {expected}")
    return QcCode(lin, m, ell, decomp, assignment)


def constituent_at_exponent(decomp: CrtDecomposition, flat: LinearCode, exp: int) -> LinearCode:
    """The CRT component of a flat QC code at evaluation point alpha^exp,
    pulled back to the canonical constituent field."""
    K = decomp.common_field
    base = decomp.q_field
    m, ell = decomp.m, decomp.ell
    exp %= m
    coset = decomp.factors.cosets.coset_of(exp)
    d = len(coset)
    cfield = field_make(base.p, base.t * d)
    _, back = _embedding_pair(cfield, K)
    fwd_base, _ = _embedding_pair(base, K)
    # entry (r*ell + j, i) is the x^i coefficient of column j of flat row r
    coef = fwd_base[flat.gen].reshape(-1, m, ell).transpose(0, 2, 1).reshape(-1, m)
    powers = np.array(decomp._alpha_pows, dtype=np.int64)[exp * np.arange(m) % m]
    vals = _matmul(K, coef, powers[:, None])
    rows = np.array([back[int(v)] for v in vals[:, 0]], dtype=np.int64).reshape(-1, ell)
    return code_from_rows(cfield, ell, rows)


def extract_assignment(decomp: CrtDecomposition, flat: LinearCode) -> ConstituentAssignment:
    pairs = []
    for sg, sgs in decomp.pair_slots:
        cp = constituent_at_exponent(decomp, flat, sg.exponent)
        cd = constituent_at_exponent(decomp, flat, sgs.exponent)
        pairs.append(PairAssignment(cp, cd))
    selfrec = tuple(
        SelfrecAssignment(constituent_at_exponent(decomp, flat, s.exponent))
        for s in decomp.selfrec_slots
    )
    return ConstituentAssignment(tuple(pairs), selfrec)


def is_shift_invariant(qc: QcCode) -> bool:
    """Closure under T^ell, the row shift of the m x ell array form: the
    shifted generator rows must lie in the code."""
    return _in_span(qc.field, np.roll(qc.lin.gen, qc.ell, axis=1), qc.lin)


# ---------------------------------------------------------------------------
# duality at the constituent level


def _duality_triple(code: LinearCode, euclidean: bool) -> tuple:
    """(SO, DC, SD) of code under the Euclidean or the Hermitian product."""
    fl = duality_class(code)
    return (fl.eso, fl.edc, fl.esd) if euclidean else (fl.hso, fl.hdc, fl.hsd)


@dataclass(frozen=True)
class SlotWitness:
    label: str
    relation: str
    ok_so: bool
    ok_dc: bool
    ok_sd: bool


@dataclass(frozen=True)
class QcDualityReport:
    flags: object  # DualityFlags of the flat code
    witness: tuple[SlotWitness, ...] | None
    witness_eso: bool | None
    witness_edc: bool | None
    witness_esd: bool | None
    agree: bool | None

    def to_json(self) -> dict:
        out = {"flags": self.flags.to_json()}
        if self.witness is not None:
            out["witness"] = [
                {
                    "slot": w.label,
                    "relation": w.relation,
                    "so": w.ok_so,
                    "dc": w.ok_dc,
                    "sd": w.ok_sd,
                }
                for w in self.witness
            ]
            out["witness_flags"] = {
                "ESO": self.witness_eso,
                "EDC": self.witness_edc,
                "ESD": self.witness_esd,
            }
            out["agree"] = self.agree
        return out


def qc_duality_class(qc: QcCode) -> QcDualityReport:
    """Flat duality flags plus, when provenance is present, the
    constituent-level certificate: pair slots need C'' related to (C')^perp,
    self-reciprocal slots need the Hermitian (or exceptional Euclidean)
    relation.  Reports agreement between the two routes."""
    flags = duality_class(qc.lin)
    if qc.decomp is None or qc.assignment is None:
        return QcDualityReport(flags, None, None, None, None, None)
    witnesses = []
    for pa, (sg, sgs) in zip(qc.assignment.pairs, qc.decomp.pair_slots):
        if pa.dual_mode:  # C'' = (C')^perp by construction
            so = dc = True
        else:
            cd = pa.cdouble
            so = not _gram(cd.field, cd.gen, pa.cprime.gen).any()  # C'' <= (C')^perp
            dc = _in_span(cd.field, _parity_rows(pa.cprime), cd)  # (C')^perp <= C''
        witnesses.append(SlotWitness(f"({sg.label},{sgs.label})", "pair-euclidean", so, dc, so and dc))
    for sa, slot in zip(qc.assignment.selfrec, qc.decomp.selfrec_slots):
        # a self-reciprocal slot's induced product is Hermitian unless exceptional
        so, dc, sd = _duality_triple(sa.code, slot.exceptional)
        product = "euclidean" if slot.exceptional else "hermitian"
        witnesses.append(SlotWitness(slot.label, product, bool(so), bool(dc), bool(sd)))
    w_eso = all(w.ok_so for w in witnesses)
    w_edc = all(w.ok_dc for w in witnesses)
    w_esd = all(w.ok_sd for w in witnesses)
    agree = (w_eso == flags.eso) and (w_edc == flags.edc) and (w_esd == flags.esd)
    return QcDualityReport(flags, tuple(witnesses), w_eso, w_edc, w_esd, agree)


def qc_dual(qc: QcCode) -> QcCode:
    """Euclidean dual with transferred provenance: pair slots swap roles and
    dualize, self-reciprocal slots take Hermitian (exceptional: Euclidean)
    duals; the prediction is cross-checked against the flat dual."""
    flat_dual = dual_euclidean(qc.lin)
    if qc.decomp is None or qc.assignment is None:
        return QcCode(flat_dual, qc.m, qc.ell)
    pairs = []
    for pa in qc.assignment.pairs:
        if pa.dual_mode:  # C'' = (C')^perp, so ((C'')^perp, (C')^perp) is (C', C'') again
            pairs.append(pa)
        else:
            pairs.append(PairAssignment(dual_euclidean(pa.cdouble), dual_euclidean(pa.cprime)))
    selfrec = []
    for sa, slot in zip(qc.assignment.selfrec, qc.decomp.selfrec_slots):
        if slot.exceptional:
            selfrec.append(SelfrecAssignment(dual_euclidean(sa.code)))
        else:
            selfrec.append(SelfrecAssignment(dual_hermitian(sa.code)))
    pred = ConstituentAssignment(tuple(pairs), tuple(selfrec))
    if assemble_qc(qc.decomp, pred).lin != flat_dual:
        raise DualMismatch("constituent-level dual disagrees with the flat dual")
    return QcCode(flat_dual, qc.m, qc.ell, qc.decomp, pred)


# ---------------------------------------------------------------------------
# Galois closure


def is_galois_closed_qc(qc: QcCode, r: int) -> bool:
    from .lincode import is_galois_closed

    return is_galois_closed(qc.lin, r)


def galois_closure_theorem_check(qc: QcCode, r: int) -> dict:
    """Both sides of the closure equivalence, computed independently.

    Flat side: C^r compared with C as canonical matrices.  Constituent side:
    when multiplication by r fixes every cyclotomic coset (the aligned case),
    each extracted constituent must be Galois closed under its own induced
    conjugation x -> x^(r^degree) - the flat Frobenius restricts to the
    half-power map of each slot field, not to x -> x^r.  In the general
    (non-aligned) case the faithful condition couples slots:
    X_u(C) = X_{u r^{-1}}(C)^{(r)} for every slot exponent u."""
    from .lincode import code_power_q, is_galois_closed

    decomp = qc.decomp
    if decomp is None:
        raise LengthMismatch("theorem check needs provenance")
    flat_closed = is_galois_closed_qc(qc, r)
    m = decomp.m
    table = decomp.factors.cosets
    aligned = all((s.exponent * r) % m in table.coset_of(s.exponent) for s in decomp.slots)
    r_inv = pow(r, -1, m)
    constituent_closed = True
    for slot in decomp.slots:
        left = constituent_at_exponent(decomp, qc.lin, slot.exponent)
        if aligned:
            if not is_galois_closed(left, r**slot.degree):
                constituent_closed = False
                break
        else:
            src = constituent_at_exponent(decomp, qc.lin, (slot.exponent * r_inv) % m)
            if code_power_q(src, r) != left:
                constituent_closed = False
                break
    return {
        "flat_closed": flat_closed,
        "constituent_closed": constituent_closed,
        "aligned": aligned,
        "agree": flat_closed == constituent_closed,
    }


# ---------------------------------------------------------------------------
# recursive families


@dataclass(frozen=True)
class FamilyPlan:
    """Recipe for the recursive family: a level-1 assignment whose pair slots
    get m^{u-1}-copies at level u, self-reciprocal slots before the last get
    m^{u-1}-copies, and the last (x - 1) slot receives the previous level."""

    q_field: GF
    m: int
    ell: int
    base: ConstituentAssignment
    u_max: int
    kind: str = "ESO"  # expected duality of the family: ESO, EDC or ESD
    materialize_max: int = DEFAULT_MATERIALIZE_MAX
    budget: int = DEFAULT_BUDGET


@dataclass
class FamilyLevel:
    u: int
    n: int
    k: int
    d_lower: int
    qc: QcCode | None = None
    rank_checked: bool | None = None
    duality_checked: bool | None = None

    def params(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.d_lower)

    def to_json(self) -> dict:
        return {
            "u": self.u,
            "n": self.n,
            "k": self.k,
            "d_lower": self.d_lower,
            "materialized": self.qc is not None,
            "rank_checked": self.rank_checked,
            "duality_checked": self.duality_checked,
        }


def _distance_of(code: LinearCode, info: DistanceInfo | None, budget: int) -> DistanceInfo:
    """The given distance, or the engine's exact one (BudgetExceeded if the
    budget cannot certify it)."""
    if info is not None:
        return info
    if code.k == 0:
        return DistanceInfo(code.n + 1, True, "zero code")
    return DistanceInfo(min_distance(code, budget).d_exact, True, "enumerated")


def build_family(plan: FamilyPlan) -> list[FamilyLevel]:
    decomp1 = decompose_ring(plan.q_field, plan.m, plan.ell)
    base = plan.base
    base.validate(decomp1)
    sr_slots = decomp1.selfrec_slots
    s = len(sr_slots)
    if sr_slots[-1].factor != Poly.make(plan.q_field, (plan.q_field.neg(1), 1)):
        raise SlotSNotESO("last self-reciprocal slot is not x - 1")
    if plan.kind not in ("ESO", "EDC", "ESD"):
        raise SlotSNotESO(f"unknown family kind {plan.kind}")
    kind_at = ("ESO", "EDC", "ESD").index(plan.kind)  # position in an (SO, DC, SD) triple
    if plan.kind != "ESO" and s != 1:
        raise SlotSNotESO("EDC/ESD families need x - 1 as the only self-reciprocal factor")
    for pa in base.pairs:
        if not pa.dual_mode:
            raise SlotSNotESO("family pair slots must derive C'' as the Euclidean dual of C'")

    # duality hypotheses
    for sa, slot in zip(base.selfrec[:-1], sr_slots[:-1]):
        if not _duality_triple(sa.code, slot.exceptional)[0]:
            raise ConstituentNotHSO(f"slot {slot.label} constituent is not self-orthogonal")
    slot_s = sr_slots[-1]
    cs = base.selfrec[-1].code
    if not _duality_triple(cs, True)[kind_at]:
        raise SlotSNotESO(f"slot {slot_s.label} constituent is not {plan.kind}")

    # ordering hypothesis: the x - 1 constituent must carry the smallest distance
    d_infos: list[DistanceInfo] = []
    for pa in base.pairs:
        d_infos.append(_distance_of(pa.cprime, pa.cprime_distance, plan.budget))
        # a given C'' distance needs no C''
        d_infos.append(pa.cdouble_distance if pa.cdouble_distance is not None else
                       _distance_of(pa.cdouble_code(), None, plan.budget))
    for sa in base.selfrec[:-1]:
        d_infos.append(_distance_of(sa.code, sa.distance, plan.budget))
    d_s = _distance_of(cs, base.selfrec[-1].distance, plan.budget)
    if not d_s.exact:
        raise UnknownConstituentDistance("the x - 1 constituent needs an exact distance")
    for di in d_infos:
        if di.value < d_s.value:
            raise OrderingViolated(
                f"constituent distance {di.value} below the x - 1 slot distance {d_s.value}"
            )

    m, ell = plan.m, plan.ell
    sum_deg_pairs = sum(g.degree for g, _ in decomp1.factors.pairs)
    sum_deg_k_sr = sum(
        slot.degree * sa.code.k for sa, slot in zip(base.selfrec[:-1], sr_slots[:-1])
    )
    k_s = cs.k

    levels: list[FamilyLevel] = []
    prev_flat: LinearCode | None = None
    for u in range(1, plan.u_max + 1):
        n_u = m**u * ell
        k_u = ell * ((m**u - 1) // (m - 1)) * sum_deg_pairs + u * sum_deg_k_sr + k_s
        d_u = m ** (u - 1) * d_s.value
        level = FamilyLevel(u, n_u, k_u, d_u)
        # n_u grows with u, so a materialized level follows a materialized one
        if n_u <= plan.materialize_max:
            copies = m ** (u - 1)
            ell_u = copies * ell
            decomp_u = decomp1 if u == 1 else decompose_ring(plan.q_field, m, ell_u)
            pairs_u = tuple(
                PairAssignment(concat_copies(pa.cprime, copies) if u > 1 else pa.cprime)
                for pa in base.pairs
            )
            sr_u = [
                SelfrecAssignment(concat_copies(sa.code, copies) if u > 1 else sa.code)
                for sa in base.selfrec[:-1]
            ]
            last = cs if u == 1 else prev_flat
            sr_u.append(SelfrecAssignment(last))
            asn_u = ConstituentAssignment(pairs_u, tuple(sr_u))
            qc = assemble_qc(decomp_u, asn_u)
            level.qc = qc
            level.rank_checked = qc.k == k_u
            level.duality_checked = _duality_triple(qc.lin, True)[kind_at]
            prev_flat = qc.lin
        levels.append(level)
    return levels


def sqrt_like_check(levels: list[FamilyLevel], ell: int, c: float) -> dict:
    """Checks d_u >= c * sqrt(n_u) for u >= 2 and reports the largest uniform
    constant admissible for this family."""
    per_level = {}
    for lv in levels:
        if lv.u >= 2:
            # squared comparison with a hair of slack: u = 2 sits exactly on
            # the boundary m^{u-1} = sqrt(m^u) and must not fail to rounding
            per_level[lv.u] = bool(lv.d_lower**2 * (1 + 1e-12) >= c * c * lv.n)
    m = levels[0].n // ell if levels else 0
    d1 = levels[0].d_lower if levels else 0
    c_uniform = min(d1 / math.sqrt(ell), math.sqrt(m)) if levels else 0.0
    return {"c": c, "per_level": per_level, "all_ok": all(per_level.values()) if per_level else True,
            "c_uniform": c_uniform}
