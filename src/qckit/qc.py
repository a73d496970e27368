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

import functools
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
from .gf import GF, embed, field_make, restrict, trace_form
from .lincode import (
    DEFAULT_BUDGET,
    LinearCode,
    code_from_rows,
    code_power_q,
    concat_copies,
    dual_euclidean,
    dual_hermitian,
    duality_class,
    full_space,
    is_galois_closed,
    min_distance,
    zero_code,
    _gram,
    _in_span,
    _matmul,
    _parity_rows,
    _rref_extend,
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
        table = self.factors.cosets
        self._slot_at = {e: s for s in slots for e in table.coset_of(s.exponent)}

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

    def slot_of(self, e: int) -> Slot:
        """The slot whose cyclotomic coset holds the exponent e (mod m)."""
        return self._slot_at[e % self.m]

    def alpha_pow(self, e: int) -> int:
        return int(self.factors.alpha_pows[e % self.m])

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


def r_hermitian_ip(field: GF, x_tuple: np.ndarray, y_tuple: np.ndarray) -> np.ndarray:
    """Sum_j x_j * conj(y_j) in F_q[x]/(x^m-1); tuples are (ell, m) arrays."""
    x_tuple = np.asarray(x_tuple, dtype=np.int64)
    y_tuple = np.asarray(y_tuple, dtype=np.int64)
    if x_tuple.shape != y_tuple.shape:
        raise LengthMismatch("tuples must have matching shape")
    m = x_tuple.shape[1]
    circ = _circulant(ring_conj(field, y_tuple)).reshape(-1, m)  # stacked over j
    return _matmul(field, x_tuple.reshape(1, -1), circ)[0]


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
        return self._cdouble

    @functools.cached_property
    def _cdouble(self) -> LinearCode:
        """C'', kept on the assignment: in dual mode it is eliminated once."""
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

    def entries(self, decomp: CrtDecomposition) -> list[tuple[Slot, LinearCode, DistanceInfo | None]]:
        """Every slot in decomposition order with its code and its given distance."""
        out = []
        for pa, (sg, sgs) in zip(self.pairs, decomp.pair_slots):
            out.append((sg, pa.cprime, pa.cprime_distance))
            out.append((sgs, pa.cdouble_code(), pa.cdouble_distance))
        for sa, slot in zip(self.selfrec, decomp.selfrec_slots):
            out.append((slot, sa.code, sa.distance))
        return out


def constituent_distances(decomp: CrtDecomposition, assignment: ConstituentAssignment,
                          budget: int) -> list[tuple[Slot, LinearCode, DistanceInfo]]:
    """Every entry with its distance: the given one; n + 1 for the zero code;
    otherwise the engine's exact one (BudgetExceeded if the budget cannot
    certify it)."""
    out = []
    for slot, code, info in assignment.entries(decomp):
        if info is None:
            info = (DistanceInfo(code.n + 1, True, "zero code") if code.k == 0 else
                    DistanceInfo(min_distance(code, budget).d_exact, True, "enumerated"))
        out.append((slot, code, info))
    return out


def _assignment_of(decomp: CrtDecomposition, code) -> ConstituentAssignment:
    """Every slot holding code(field, ell) over its constituent field."""
    ell = decomp.ell
    return ConstituentAssignment(
        tuple(PairAssignment(code(sg.cfield, ell), code(sg.cfield, ell)) for sg, _ in decomp.pair_slots),
        tuple(SelfrecAssignment(code(s.cfield, ell)) for s in decomp.selfrec_slots),
    )


def assignment_all_full(decomp: CrtDecomposition) -> ConstituentAssignment:
    return _assignment_of(decomp, full_space)


def assignment_all_zero(decomp: CrtDecomposition) -> ConstituentAssignment:
    return _assignment_of(decomp, zero_code)


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


@functools.cache
def _trace_terms(cfield: GF, K: GF, q_field: GF, points: tuple[int, ...]):
    """The maps c -> Tr(c * x^b * y) over the F_q-basis x^b of cfield and the
    points y of K, which lie in the embedded copy of cfield: a slot's terms
    of the trace formula, for its evaluation points alpha^(-g u)."""
    basis = np.array([cfield.pow_(cfield.gen, b) for b in range(cfield.t // q_field.t)], dtype=np.int64)
    # the products are taken in cfield
    return trace_form(cfield, K, q_field, cfield.mul_arr(basis[:, None], restrict(cfield, K, points)[None, :]))


def _stack(blocks: list[np.ndarray], n: int) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.zeros((0, n), dtype=np.int64)


def _slot_rows(decomp: CrtDecomposition, slot: Slot, gen: np.ndarray) -> np.ndarray:
    """The trace formula at slot on the constituent rows gen: one row of F_q
    entries per row of gen and element of an F_q-basis of the slot's field,
    with entry g * ell + j for point g and column j.  These rows span the
    image of gen's span over F_q."""
    m = decomp.m
    points = tuple(decomp.alpha_pow(-g * slot.exponent) for g in range(m))
    # entry (row, j, basis element, g)
    vals = _trace_terms(slot.cfield, decomp.common_field, decomp.q_field, points)(gen)
    return vals.transpose(0, 2, 3, 1).reshape(-1, m * decomp.ell)


def _rank_checked(decomp: CrtDecomposition, assignment: ConstituentAssignment, lin: LinearCode) -> QcCode:
    """lin as the QC code of assignment; RankMismatch unless its dimension is
    the constituents' count."""
    expected = dim_from_constituents(decomp, assignment)
    if lin.k != expected:
        raise RankMismatch(f"rank {lin.k} != constituent dimension {expected}")
    return QcCode(lin, decomp.m, decomp.ell, decomp, assignment)


def assemble_qc(decomp: CrtDecomposition, assignment: ConstituentAssignment) -> QcCode:
    """Span the trace formula over an F_q-basis of every constituent code."""
    assignment.validate(decomp)
    n = decomp.n
    blocks = [_slot_rows(decomp, slot, code.gen)
              for slot, code, _ in assignment.entries(decomp) if code.k]
    return _rank_checked(decomp, assignment, code_from_rows(decomp.q_field, n, _stack(blocks, n)))


def constituent_at_exponent(decomp: CrtDecomposition, flat: LinearCode, exp: int) -> LinearCode:
    """The CRT component of a flat QC code at evaluation point alpha^exp,
    pulled back to the canonical constituent field."""
    K = decomp.common_field
    base = decomp.q_field
    m, ell = decomp.m, decomp.ell
    cfield = decomp.slot_of(exp).cfield
    # entry (r*ell + j, i) is the x^i coefficient of column j of flat row r
    coef = embed(base, K, flat.gen).reshape(-1, m, ell).transpose(0, 2, 1).reshape(-1, m)
    powers = decomp.factors.alpha_pows[exp * np.arange(m) % m]
    vals = _matmul(K, coef, powers[:, None])
    rows = restrict(cfield, K, vals[:, 0]).reshape(-1, ell)
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
        fl = duality_class(sa.code)
        if slot.exceptional:
            product, so, dc, sd = "euclidean", fl.eso, fl.edc, fl.esd
        else:  # None (no Hermitian product) counts as not holding
            product, so, dc, sd = "hermitian", bool(fl.hso), bool(fl.hdc), bool(fl.hsd)
        witnesses.append(SlotWitness(slot.label, product, so, dc, sd))
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


def galois_closure_theorem_check(qc: QcCode, r: int) -> dict:
    """Both sides of the closure equivalence, computed independently.

    Flat side: C^r compared with C as canonical matrices.  Constituent side:
    when multiplication by r fixes every cyclotomic coset (the aligned case),
    each extracted constituent must be Galois closed under its own induced
    conjugation x -> x^(r^degree) - the flat Frobenius restricts to the
    half-power map of each slot field, not to x -> x^r.  In the general
    (non-aligned) case the faithful condition couples slots:
    X_u(C) = X_{u r^{-1}}(C)^{(r)} for every slot exponent u."""
    decomp = qc.decomp
    if decomp is None:
        raise LengthMismatch("theorem check needs provenance")
    flat_closed = is_galois_closed(qc.lin, r)
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


@dataclass(frozen=True)
class _LevelOneImages:
    """Level 1's trace images, from which every family level u >= 2 is
    written down rather than assembled.

    Level u holds t = m^(u-1) copies of each level-1 constituent but the
    last, and level u - 1 in the x - 1 slot, over ell_u = t * ell columns.
    Its column (g, c, j), for point g, copy c and column j of a copy, is
    g * t * ell + c * ell + j.  The trace formula acts entry by entry on a
    constituent word, so a word x put in copy c, E_c(x), has the image
    E_c(image of x), and level u is spanned by
      - the images of each C' and each self-reciprocal code before x - 1
        (`tiled`), tiled across the t copies;
      - each row of level u - 1 repeated at the m points: the x - 1 slot's
        image of a word is that word at every point;
      - the images of C''_u, the dual of t copies of C', which is
        {(x_c) : sum_c x_c in C''}: E_(t-1) of the images of the C''
        (`last`), and the copy differences E_c(v) - E_(t-1)(v) for c < t - 1
        and v a row of `space`, the RREF of the images of the whole space at
        the g* slots.
    The copy differences are in RREF already: the row of (c, v) is 1 at
    (g_v, c, j_v), where g_v * ell + j_v is v's pivot, and 0 at the other
    rows' pivots.  Only the rest of the level's rows are eliminated.
    """

    decomp: CrtDecomposition  # level 1's
    tiled: np.ndarray
    last: np.ndarray
    space: LinearCode


def _level_one_images(decomp: CrtDecomposition, base: ConstituentAssignment) -> _LevelOneImages:
    n = decomp.n
    tiled, last, space = [], [], []
    for pa, (sg, sgs) in zip(base.pairs, decomp.pair_slots):
        tiled.append(_slot_rows(decomp, sg, pa.cprime.gen))
        last.append(_slot_rows(decomp, sgs, pa.cdouble_code().gen))
        space.append(_slot_rows(decomp, sgs, full_space(sgs.cfield, decomp.ell).gen))
    for sa, slot in zip(base.selfrec[:-1], decomp.selfrec_slots[:-1]):
        tiled.append(_slot_rows(decomp, slot, sa.code.gen))
    return _LevelOneImages(decomp, _stack(tiled, n), _stack(last, n),
                           code_from_rows(decomp.q_field, n, _stack(space, n)))


def _family_level(images: _LevelOneImages, prev: LinearCode, t: int) -> LinearCode:
    """The flat code of the family level with t copies, from level 1's
    images and the level before, prev (see _LevelOneImages)."""
    field, m, ell = images.decomp.q_field, images.decomp.m, images.decomp.ell
    space = images.space
    a, b, dv = len(images.tiled), len(images.last), space.k
    top = (t - 1) * dv
    # the copy differences, then the rows to eliminate, in one array whose
    # entry (row, g, c, j) is column (g, c, j)
    mat = np.zeros((top + a + b + prev.k, m, t, ell), dtype=np.int64)
    diff = mat[:top].reshape(t - 1, dv, m, t, ell)
    c = np.arange(t - 1)
    diff[c, :, :, c] = space.gen.reshape(dv, m, ell)
    diff[:, :, :, t - 1] = field.neg_arr(space.gen).reshape(dv, m, ell)
    # the row of (c, v) leads at (g_v, c, j_v)
    g_v, j_v = np.divmod(np.array(space.pivots, dtype=np.int64), ell)
    lead = g_v * t * ell + ell * c[:, None] + j_v
    mat[top:top + a] = images.tiled.reshape(a, m, 1, ell)
    mat[top + a:top + a + b, :, t - 1] = images.last.reshape(b, m, ell)
    mat[top + a + b:] = prev.gen.reshape(prev.k, 1, t, ell)
    mat = mat.reshape(len(mat), -1)
    gen, pivots = _rref_extend(field, mat[:top], lead.ravel(), mat[top:])
    return LinearCode(field, mat.shape[1], gen, pivots)


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
    if plan.kind != "ESO" and s != 1:
        raise SlotSNotESO("EDC/ESD families need x - 1 as the only self-reciprocal factor")
    for pa in base.pairs:
        if not pa.dual_mode:
            raise SlotSNotESO("family pair slots must derive C'' as the Euclidean dual of C'")

    # duality hypotheses
    for sa, slot in zip(base.selfrec[:-1], sr_slots[:-1]):
        fl = duality_class(sa.code)
        if not (fl.eso if slot.exceptional else fl.hso):
            raise ConstituentNotHSO(f"slot {slot.label} constituent is not self-orthogonal")
    slot_s = sr_slots[-1]
    cs = base.selfrec[-1].code
    flag = plan.kind.lower()  # the DualityFlags attribute the family kind reads
    if not getattr(duality_class(cs), flag):
        raise SlotSNotESO(f"slot {slot_s.label} constituent is not {plan.kind}")

    # ordering hypothesis: the x - 1 constituent, the last entry, must carry
    # the smallest distance
    *others, (_, _, d_s) = constituent_distances(decomp1, base, plan.budget)
    if not d_s.exact:
        raise UnknownConstituentDistance("the x - 1 constituent needs an exact distance")
    for _, _, di in others:
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
    images: _LevelOneImages | None = None
    for u in range(1, plan.u_max + 1):
        n_u = m**u * ell
        k_u = ell * sum(m**i for i in range(u)) * sum_deg_pairs + u * sum_deg_k_sr + k_s
        d_u = m ** (u - 1) * d_s.value
        level = FamilyLevel(u, n_u, k_u, d_u)
        # n_u grows with u, so a materialized level follows a materialized one
        if n_u <= plan.materialize_max:
            if u == 1:  # the base itself, with the C'' the ordering check built
                qc = assemble_qc(decomp1, base)
            else:
                copies = m ** (u - 1)
                decomp_u = decompose_ring(plan.q_field, m, copies * ell)
                pairs_u = tuple(PairAssignment(concat_copies(pa.cprime, copies)) for pa in base.pairs)
                sr_u = tuple(SelfrecAssignment(concat_copies(sa.code, copies)) for sa in base.selfrec[:-1])
                asn_u = ConstituentAssignment(pairs_u, sr_u + (SelfrecAssignment(prev_flat),))
                if images is None:
                    images = _level_one_images(decomp1, base)
                qc = _rank_checked(decomp_u, asn_u, _family_level(images, prev_flat, copies))
            level.qc = qc
            level.rank_checked = qc.k == k_u
            level.duality_checked = getattr(duality_class(qc.lin), flag)
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
