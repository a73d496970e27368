"""Constituent-based bounds on QC minimum distance.

Two values are reported over the same chain of nonzero constituents, sorted
by descending distance d(C_{i_1}) >= ... >= d(C_{i_h}).  D_I is the m-length
cyclic code with check polynomial prod_{i in I} m_{alpha^{u_i}}
(equivalently: the cyclic code whose dual's basic zero set is
{alpha^{-u_i}}).

``d_sound`` is Jensen's concatenated-structure bound (J. M. Jensen, IEEE
Trans. IT 1985), taken in both orientations of the chain:

    max( min_r d(C_{i_r}) d(D_{i_1..i_r}),  min_r d(C_{i_r}) d(D_{i_r..i_h}) )

It is a certified lower bound: if the last (first) nonzero constituent of a
codeword sits at i_r, at least d(C_{i_r}) of its ell row polynomials are
nonzero, and each lies in the cyclic code of the prefix (suffix) interval
ending (starting) at i_r.

``d_go`` is the telescoped formula exactly as published,

    R_{i_1..i_t} = (d(C_{i_1}) - d(C_{i_2})) d(D_{i_1})
                 + (d(C_{i_2}) - d(C_{i_3})) d(D_{i_1,i_2}) + ...
                 + d(C_{i_t}) d(D_{i_1,...,i_t})

minimized over the suffix chains {h}, {h-1,h}, ..., {1..h}.  It is NOT a
lower bound for arbitrary constituent systems (see the frozen
counterexamples in the test suite); it is kept so that published values can
be replayed, and it is never presented as certified.  Every D_I either bound
needs is an interval of the chain, so both come from the same D-table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import EmptyAssignment, RepNotACosetMin
from .gf import GF
from .lincode import DEFAULT_BUDGET, LinearCode, code_from_rows, min_distance
from .poly import FactorSet, Poly, factor_xm1
from .qc import ConstituentAssignment, CrtDecomposition, DistanceInfo, _circulant, constituent_distances


def cyclic_code_from_gen(q_field: GF, m: int, gen_poly: Poly) -> LinearCode:
    """Cyclic code of length m generated by gen_poly (which divides x^m - 1):
    the shifts of gen_poly by 0, ..., m - deg - 1, the first rows of its
    circulant.  x^m - 1 itself, of degree m, gives no row."""
    first = np.zeros(m + 1, dtype=np.int64)
    first[:gen_poly.degree + 1] = gen_poly.coeffs
    return code_from_rows(q_field, m, _circulant(first[:m])[:m - gen_poly.degree])


def _generator_outside(factors: FactorSet, check_cosets) -> tuple[Poly, set[int]]:
    """Generator and exponent zero set of the cyclic code whose check
    polynomial is the product of the factors of check_cosets: the generator
    (x^m - 1) / check is the product of the factors of the other cosets,
    whose exponents are the zeros."""
    gen = Poly.one(factors.field)
    zero_exps = set()
    for coset in factors.cosets.cosets:
        if coset not in check_cosets:
            gen = gen * factors.coset_factor[coset]
            zero_exps.update(coset)
    return gen, zero_exps


def cyclic_from_nonzeros(q_field: GF, m: int, reps) -> LinearCode:
    """The associated cyclic code for a set of coset representatives: check
    polynomial prod m_{alpha^rep}, generator (x^m-1)/check."""
    factors = factor_xm1(q_field, m)
    table = factors.cosets
    seen = set()
    for rep in reps:
        coset = table.coset_of(rep)
        if rep != coset[0]:
            raise RepNotACosetMin(f"{rep} is not the smallest element of its coset {coset}")
        if coset in seen:
            raise RepNotACosetMin(f"duplicate coset for representative {rep}")
        seen.add(coset)
    gen, _ = _generator_outside(factors, seen)
    return cyclic_code_from_gen(q_field, m, gen)


def _bch_bound(m: int, zero_exponents: set[int]) -> int:
    """Longest cyclic run of consecutive exponent zeros, plus one."""
    if len(zero_exponents) >= m:
        return m + 1
    best = 0
    run = 0
    for e in range(2 * m):
        if e % m in zero_exponents:
            run += 1
            best = max(best, min(run, m))
        else:
            run = 0
    return best + 1


@dataclass(frozen=True)
class ChainEntry:
    slot_label: str
    exponent: int
    degree: int
    distance: DistanceInfo

    def to_json(self) -> dict:
        return {
            "slot": self.slot_label,
            "exponent": self.exponent,
            "degree": self.degree,
            "distance": self.distance.to_json(),
        }


@dataclass(frozen=True)
class DEntry:
    subset: tuple[int, ...]  # chain positions, 1-based
    gen_poly: Poly
    dim: int
    distance: int
    exact: bool

    def to_json(self) -> dict:
        return {
            "subset": list(self.subset),
            "generator": list(self.gen_poly.coeffs),
            "dim": self.dim,
            "distance": self.distance,
            "exact": self.exact,
        }


@dataclass
class GoReport:
    chain: list[ChainEntry]
    d_table: dict[tuple[int, ...], DEntry]
    r_values: dict[tuple[int, ...], int]
    d_go: int  # the published telescoped formula; not a certified bound
    d_sound: int  # Jensen's bound; a certified lower bound
    exact_mode: bool  # all ingredients exact
    findings: list[str] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "chain": [c.to_json() for c in self.chain],
            "d_table": {"D_" + ",".join(map(str, k)): v.to_json() for k, v in self.d_table.items()},
            "r_values": {"R_" + ",".join(map(str, k)): v for k, v in self.r_values.items()},
            "d_go": self.d_go,
            "d_sound": self.d_sound,
            "exact_mode": self.exact_mode,
            "findings": self.findings,
        }


def _d_generator(decomp: CrtDecomposition, subset: tuple[int, ...],
                 chain: list) -> tuple[Poly, int, set[int]]:
    """D_I's generator polynomial, dimension and exponent zero set."""
    table = decomp.factors.cosets
    gen, zero_exps = _generator_outside(
        decomp.factors, {table.coset_of(chain[pos - 1][0].exponent) for pos in subset})
    return gen, decomp.m - gen.degree, zero_exps


def _d_code_entry(decomp: CrtDecomposition, subset: tuple[int, ...],
                  chain: list, budget: int) -> DEntry:
    """D_I's distance: exact when the engine certifies it within the budget,
    otherwise the larger of the BCH bound and the engine's lower bound."""
    gen, dim, zero_exps = _d_generator(decomp, subset, chain)
    if dim == decomp.m:
        return DEntry(subset, gen, dim, 1, True)
    rep = min_distance(cyclic_code_from_gen(decomp.q_field, decomp.m, gen), budget, mode="bound")
    if rep.mode == "exact":
        return DEntry(subset, gen, dim, rep.d_exact, True)
    return DEntry(subset, gen, dim, max(_bch_bound(decomp.m, zero_exps), rep.d_lower), False)


def go_bound(decomp: CrtDecomposition, assignment: ConstituentAssignment,
             distance_budget: int = DEFAULT_BUDGET) -> GoReport:
    """Evaluate the published telescoped formula and Jensen's sound bound."""
    # zero constituents drop out of the chain
    chain = [e for e in constituent_distances(decomp, assignment, distance_budget) if e[1].k > 0]
    if not chain:
        raise EmptyAssignment("no nonzero constituents")
    # descending distance; the sort is stable, so ties keep decomposition order
    chain.sort(key=lambda e: -e[2].value)
    h = len(chain)
    d_vals = [info.value for _, _, info in chain]
    exact_mode = all(info.exact for _, _, info in chain)

    d_table: dict[tuple[int, ...], DEntry] = {}

    def dcode(subset: tuple[int, ...]) -> DEntry:
        if subset not in d_table:
            d_table[subset] = _d_code_entry(decomp, subset, chain, distance_budget)
        return d_table[subset]

    r_values: dict[tuple[int, ...], int] = {}
    findings: list[str] = []
    for start in range(h, 0, -1):
        idxs = tuple(range(start, h + 1))
        total = 0
        for a in range(len(idxs)):
            da = d_vals[idxs[a] - 1]
            dnext = d_vals[idxs[a + 1] - 1] if a + 1 < len(idxs) else 0
            prefix = idxs[: a + 1]
            entry = dcode(prefix)
            total += (da - dnext) * entry.distance
            if not entry.exact:
                exact_mode = False
        r_values[idxs] = total
    d_go = min(r_values.values())

    # Jensen's bound; every prefix and suffix interval is already in d_table
    d_prefix = min(d_vals[r - 1] * d_table[tuple(range(1, r + 1))].distance for r in range(1, h + 1))
    d_suffix = min(d_vals[r - 1] * d_table[tuple(range(r, h + 1))].distance for r in range(1, h + 1))
    d_sound = max(d_prefix, d_suffix)

    # the displayed table enumerates every nonempty subset for small h
    if h <= 4:
        for t in range(1, h + 1):
            for combo in itertools.combinations(range(1, h + 1), t):
                dcode(combo)

    # nesting monotonicity and the strict-positivity observation used by the
    # recursive family's distance argument
    full = tuple(range(1, h + 1))
    if h >= 2:
        head = dcode(full[:-1])
        if head.distance - dcode(full).distance <= 0:
            findings.append(
                f"d(D_{full[:-1]}) - d(D_{full}) = {head.distance - dcode(full).distance} <= 0"
            )
    report = GoReport(
        chain=[ChainEntry(s.label, s.exponent, s.degree, info) for s, _, info in chain],
        d_table=d_table,
        r_values=r_values,
        d_go=d_go,
        d_sound=d_sound,
        exact_mode=exact_mode,
        findings=findings,
    )
    return report
