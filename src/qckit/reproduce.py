"""End-to-end replay of the bundled reference examples.

Each target rebuilds one worked construction from scratch, re-derives every
transcribed claim (factorizations, D-tables, dimensions, duality flags, bound
values, stabilizer parameters, family ledgers, modulus tables) and reports a
pass / fail / flagged status per claim.  "flagged" marks a discrepancy the
suite deliberately surfaces instead of judging (reference values that
disagree with their own stated construction); computed results that
contradict a reference claim outright are failures, with the certificate
included in the report payload.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from importlib import resources
from math import sqrt


from .gf import _embedding_pair, field_make
from .lincode import (
    LinearCode,
    code_from_rows,
    concat_copies,
    dual_euclidean,
    duality_class,
    full_space,
    grs_code,
    min_distance,
    min_weight_outside,
    subspace_leq,
    _gram,
)
from .gobound import go_bound
from .poly import three_factor_scan
from .qc import (
    ConstituentAssignment,
    DistanceInfo,
    FamilyPlan,
    PairAssignment,
    SelfrecAssignment,
    assemble_qc,
    build_family,
    decompose_ring,
    dim_from_constituents,
    galois_closure_theorem_check,
    qc_duality_class,
    sqrt_like_check,
)
from .quantum import QuantumParams, from_dual_containing, singleton_audit, transform

TARGETS = ("example41", "example42", "example43", "cor35-example", "example39", "tables")


def load_tables() -> dict:
    with resources.files("qckit.data").joinpath("paper_tables.json").open("r") as fh:
        return json.load(fh)


@dataclass
class Check:
    claim: str
    source: str
    status: str  # pass | fail | flagged
    expected: object = None
    computed: object = None

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "source": self.source,
            "status": self.status,
            "expected": self.expected,
            "computed": self.computed,
        }


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict = dc_field(default_factory=dict)
    checks: list[Check] = dc_field(default_factory=list)
    timing_s: float = 0.0

    def check(self, claim: str, source: str, expected, computed, flag_only: bool = False):
        if flag_only:
            status = "pass" if expected == computed else "flagged"
        else:
            status = "pass" if expected == computed else "fail"
        self.checks.append(Check(claim, source, status, expected, computed))
        return status

    def check_true(self, claim: str, source: str, ok: bool, computed=None):
        self.checks.append(Check(claim, source, "pass" if ok else "fail", True, computed if computed is not None else ok))

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": [c.to_json() for c in self.checks],
            "timing_s": round(self.timing_s, 3),
        }

    def render(self) -> str:
        lines = [f"== {self.command} =="]
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "flagged": "FLAG"}[c.status]
            line = f"  [{mark}] {c.claim}  ({c.source})"
            if c.status != "pass":
                line += f"  expected={c.expected!r} computed={c.computed!r}"
            lines.append(line)
        npass = sum(1 for c in self.checks if c.status == "pass")
        nfail = sum(1 for c in self.checks if c.status == "fail")
        nflag = sum(1 for c in self.checks if c.status == "flagged")
        lines.append(f"  -- {npass} pass, {nfail} fail, {nflag} flagged ({self.timing_s:.2f}s)")
        return "\n".join(lines)


def _factor_check(rep: RunReport, source: str, q_field, m, pair_coeffs, selfrec_coeffs):
    decomp = decompose_ring(q_field, m, 1)
    fs = decomp.factors
    got_pairs = [[list(g.coeffs), list(gs.coeffs)] for g, gs in fs.pairs]
    rep.check("x^m-1 reciprocal pair factors", source + "/factors",
              [sorted(pair_coeffs)], [sorted(p) for p in got_pairs])
    rep.check("x^m-1 self-reciprocal factors", source + "/factors",
              sorted(map(tuple, selfrec_coeffs)), sorted(tuple(f.coeffs) for f in fs.selfrec))
    for g, gs in fs.pairs:
        rep.check_true(f"{g} and {gs} are mutual reciprocals", source + "/factors",
                       g.reciprocal() == gs)


def _derived_table_replay(rep: RunReport, source: str, base: QuantumParams, fx: dict):
    p = base
    got = []
    for _ in range(len(fx["shorten"])):
        p = transform(p, "shorten")
        got.append([p.n, p.k, p.d_lower])
    rep.check("shortening chain parameters", source + "/derived-table", fx["shorten"], got)
    p = base
    got = []
    for _ in range(len(fx["lengthen"])):
        p = transform(p, "lengthen")
        got.append([p.n, p.k, p.d_lower])
    rep.check("lengthening chain parameters", source + "/derived-table", fx["lengthen"], got)


def run_example41(budget: int = 2**25, long_mode: bool = False) -> RunReport:
    t0 = time.time()
    rep = RunReport("reproduce example41", {"budget": budget})
    fx = load_tables()["example41"]
    f4 = field_make(2, 2)
    _factor_check(rep, "example41", f4, 7, fx["pair"], fx["selfrec"])

    decomp = decompose_ring(f4, 7, 3)
    sg, sgs = decomp.pair_slots[0]
    rep.check("pair constituent fields", "example41/decomposition",
              [64, 64], [sg.cfield.order, sgs.cfield.order])
    rep.check("self-reciprocal constituent field", "example41/decomposition",
              4, decomp.selfrec_slots[0].cfield.order)

    F64 = sg.cfield
    gamma = F64.gen  # any element outside the F_4 subfield spans the same line
    cp = code_from_rows(F64, 3, [(gamma, gamma, gamma)])
    cs = full_space(f4, 3)
    asn = ConstituentAssignment((PairAssignment(cp),), (SelfrecAssignment(cs),))
    cd = asn.pairs[0].cdouble_code()
    rep.check("constituent parameters [n,k,d]", "example41/constituents",
              fx["constituent_params"],
              [[cp.n, cp.k, min_distance(cp).d_exact],
               [cd.n, cd.k, min_distance(cd).d_exact],
               [cs.n, cs.k, min_distance(cs).d_exact]])

    qc = assemble_qc(decomp, asn)
    rep.check("dimension (constituent formula = rank)", "example41/dimension",
              [fx["dim"], fx["dim"]], [dim_from_constituents(decomp, asn), qc.k])

    dual_rep = qc_duality_class(qc)
    rep.check_true("dual-containing (flat flags and constituent witness agree)",
                   "example41/duality",
                   bool(dual_rep.flags.edc) and bool(dual_rep.agree) and bool(dual_rep.witness_edc))

    gal = galois_closure_theorem_check(qc, 2)
    rep.check_true("Galois closed; flat and constituent sides agree",
                   "example41/galois", gal["flat_closed"] and gal["agree"])

    go = go_bound(decomp, asn, budget)
    got_table = {}
    for subset, entry in go.d_table.items():
        got_table[",".join(map(str, subset))] = {"gen": list(entry.gen_poly.coeffs), "d": entry.distance}
    rep.check("associated cyclic code table (generators and distances)",
              "example41/d-table", fx["d_table"], {k: got_table[k] for k in fx["d_table"]})
    rep.check("bound value d_GO", "example41/d_go", fx["d_go"], go.d_go)
    rep.check("published component list min{7,7,8} (final term per the printed variant)",
              "example41/d_go", fx["published_r_components"],
              [go.r_values[k] for k in sorted(go.r_values, key=len)], flag_only=True)

    dist = min_distance(qc.lin, budget=budget, mode="exact")
    rep.results["exact_distance"] = dist.d_exact
    rep.check_true("exact minimum distance attains the published bound (>= 7 and >= d_GO)",
                   "example41/exact-distance",
                   dist.d_exact >= 7 and dist.d_exact >= go.d_go, dist.d_exact)

    q = from_dual_containing(qc.lin, d=fx["css"][2])
    rep.check("CSS parameters [[n,k,>=d]]", "example41/css",
              fx["css"], [q.n, q.k, q.d_lower])
    csse, _ = min_weight_outside(qc.lin, qc.lin, budget)
    rep.results["exact_css_distance"] = csse
    rep.check("exact stabilizer distance attains the published bound",
              "example41/css", fx["css"][2], csse, flag_only=True)
    rep.check("quantum Singleton audit", "example41/singleton",
              {"ok": True, "slack": 6, "quantum_mds": False}, singleton_audit(q).to_json())
    _derived_table_replay(rep, "example41", q, fx)
    rep.timing_s = time.time() - t0
    return rep


def _example42_assignment():
    f2 = field_make(2, 1)
    decomp = decompose_ring(f2, 7, 8)
    F8 = decomp.pair_slots[0][0].cfield
    cp = grs_code(F8, list(range(8)), [1] * 8, 3)
    fx = load_tables()["example42"]
    cs = code_from_rows(f2, 8, fx["cs_rows"])
    asn = ConstituentAssignment((PairAssignment(cp),), (SelfrecAssignment(cs),))
    return decomp, asn, fx


def run_example42(budget: int = 2**25, long_mode: bool = False) -> RunReport:
    t0 = time.time()
    rep = RunReport("reproduce example42", {"budget": budget, "long": long_mode})
    f2 = field_make(2, 1)
    _factor_check(rep, "example42", f2, 7, [[1, 1, 0, 1], [1, 0, 1, 1]], [[1, 1]])
    decomp, asn, fx = _example42_assignment()
    cp = asn.pairs[0].cprime
    cd = asn.pairs[0].cdouble_code()
    cs = asn.selfrec[0].code
    rep.check("constituent parameters [n,k,d]", "example42/constituents",
              fx["constituent_params"],
              [[cp.n, cp.k, min_distance(cp).d_exact],
               [cd.n, cd.k, min_distance(cd).d_exact],
               [cs.n, cs.k, min_distance(cs).d_exact]])
    qc = assemble_qc(decomp, asn)
    rep.check("dimension (constituent formula = rank)", "example42/dimension",
              [fx["dim"], fx["dim"]],
              [dim_from_constituents(decomp, asn), qc.k])
    rep.check_true("dual-containing", "example42/duality", bool(duality_class(qc.lin).edc))
    go = go_bound(decomp, asn, budget)
    rep.check("associated cyclic code distances (all seven subsets)", "example42/d-table",
              sorted(fx["d_table_distances"]),
              sorted(e.distance for e in go.d_table.values()))
    rep.check("bound value d_GO", "example42/d_go", fx["d_go"], go.d_go)

    if long_mode:
        dist = min_distance(qc.lin, budget=budget, mode="exact")
        rep.results["exact_distance"] = dist.d_exact
        rep.check_true("exact minimum distance attains the published bound (>= 14)",
                       "example42/exact-distance", dist.d_exact >= 14, dist.d_exact)

    q = from_dual_containing(qc.lin, d=fx["css"][2])
    rep.check("CSS parameters [[n,k,>=d]]", "example42/css", fx["css"], [q.n, q.k, q.d_lower])
    rep.check("quantum Singleton audit", "example42/singleton",
              {"ok": True, "slack": 26, "quantum_mds": False}, singleton_audit(q).to_json())
    _derived_table_replay(rep, "example42", q, fx)
    rep.timing_s = time.time() - t0
    return rep


def run_example43(budget: int = 2**24, long_mode: bool = False) -> RunReport:
    t0 = time.time()
    rep = RunReport("reproduce example43", {"budget": budget})
    fx = load_tables()["example43"]
    f4 = field_make(2, 2)
    decomp = decompose_ring(f4, 7, 3)
    F64 = decomp.pair_slots[0][0].cfield
    cp = code_from_rows(F64, 3, [(F64.gen,) * 3])
    cs = code_from_rows(f4, 3, fx["cs_rows"])
    rep.check("last constituent is an EDC [3,2,2] code", "example43/constituents",
              [3, 2, 2, True],
              [cs.n, cs.k, min_distance(cs).d_exact, duality_class(cs).edc])
    asn = ConstituentAssignment(
        (PairAssignment(cp, None, DistanceInfo(3, True), DistanceInfo(2, True)),),
        (SelfrecAssignment(cs, DistanceInfo(2, True)),),
    )
    plan = FamilyPlan(f4, 7, 3, asn, u_max=3, kind="EDC", materialize_max=24)
    levels = build_family(plan)
    rep.check_true("level-1 code materialized with the formula rank and EDC",
                   "example43/family",
                   levels[0].qc is not None and levels[0].rank_checked and levels[0].duality_checked,
                   levels[0].to_json())
    rep.check("family lengths 3*7^u", "example43/family",
              [3 * 7**u for u in (1, 2, 3)], [lv.n for lv in levels])
    rep.check("family distance floors 2*7^(u-1)", "example43/family",
              fx["d_lower"], [lv.d_lower for lv in levels])
    rep.check("published dimension column 3(7^u+1)/2 vs the dimension formula",
              "example43/family", fx["published_dims"], [lv.k for lv in levels], flag_only=True)
    q1 = from_dual_containing(levels[0].qc.lin, d=2)
    rep.check("published logical dimension 3 vs 2k-n from the stated constituents",
              "example43/quantum", fx["published_quantum_k"], q1.k, flag_only=True)
    rep.timing_s = time.time() - t0
    return rep


def run_cor35(budget: int = 2**24, long_mode: bool = False) -> RunReport:
    t0 = time.time()
    rep = RunReport("reproduce cor35-example", {"budget": budget})
    fx = load_tables()["cor35"]
    f3 = field_make(3, 1)
    _factor_check(rep, "cor35-example", f3, 11, fx["pair"], [[2, 1]])
    decomp = decompose_ring(f3, 11, 5)
    sg = decomp.pair_slots[0][0]
    F243 = sg.cfield
    # the generator "alpha" of the worked example is the slot's own evaluation
    # point: the residue of x in F_3[x]/(g), i.e. the canonical root of g
    a = _embedding_pair(F243, decomp.common_field)[1][decomp.alpha_pow(sg.exponent)]
    row2 = [F243.pow_(a, i) for i in range(1, 6)]
    cp = code_from_rows(F243, 5, [fx["cprime_first_row"], row2])
    rep.check("first constituent is a [5,2,4] code", "cor35-example/constituents",
              [5, 2, 4], [cp.n, cp.k, min_distance(cp).d_exact])
    cd = dual_euclidean(cp)
    rep.check("its dual is a [5,3,3] code", "cor35-example/constituents",
              [5, 3, 3], [cd.n, cd.k, min_distance(cd).d_exact])
    cs = code_from_rows(f3, 5, fx["cs_rows"])
    rep.check("last constituent is the self-orthogonal [5,2,3] code",
              "cor35-example/constituents",
              [5, 2, 3, True],
              [cs.n, cs.k, min_distance(cs).d_exact, duality_class(cs).eso])
    asn = ConstituentAssignment(
        (PairAssignment(cp, None, DistanceInfo(4, True), DistanceInfo(3, True)),),
        (SelfrecAssignment(cs, DistanceInfo(3, True)),),
    )
    plan = FamilyPlan(f3, 11, 5, asn, u_max=3, kind="ESO", materialize_max=60)
    levels = build_family(plan)
    rep.check("family ledger [5*11^u, (5*11^u-1)/2, >=3*11^(u-1)]",
              "cor35-example/family", fx["ledger"], [list(lv.params()) for lv in levels])
    lv1 = levels[0]
    gram_zero = not _gram(f3, lv1.qc.lin.gen, lv1.qc.lin.gen).any()
    rep.check("level-1 code: rank 27 and G.G^T = 0 (ESO)", "cor35-example/family",
              [27, True], [lv1.qc.k, gram_zero])
    rep.timing_s = time.time() - t0
    return rep


def run_example39(budget: int = 2**24, long_mode: bool = False) -> RunReport:
    t0 = time.time()
    rep = RunReport("reproduce example39", {"budget": budget})
    fx = load_tables()["example39"]
    f5 = field_make(5, 1)
    _factor_check(rep, "example39", f5, 11, fx["pair"], [[4, 1]])
    decomp = decompose_ring(f5, 11, 6)
    F3125 = decomp.pair_slots[0][0].cfield
    cp = grs_code(F3125, [0, 1, 2, 3, 4, 5], [1] * 6, 3)
    rep.check("first constituent is a [6,3] GRS code (MDS: d = 4)",
              "example39/constituents", [6, 3], [cp.n, cp.k])
    cs = code_from_rows(f5, 6, fx["cs_rows"])
    rep.check("last constituent is the self-dual [6,3,4] code",
              "example39/constituents",
              [6, 3, 4, True],
              [cs.n, cs.k, min_distance(cs).d_exact, duality_class(cs).esd])
    asn = ConstituentAssignment(
        (PairAssignment(cp, None, DistanceInfo(4, True, "mds"), DistanceInfo(4, True, "mds")),),
        (SelfrecAssignment(cs, DistanceInfo(4, True)),),
    )
    plan = FamilyPlan(f5, 11, 6, asn, u_max=3, kind="ESD", materialize_max=70)
    levels = build_family(plan)
    rep.check("dimension-formula ledger [6*11^u, 3*11^u, >=4*11^(u-1)]",
              "example39/family", fx["formula_ledger"], [list(lv.params()) for lv in levels])
    rep.check("published family parameters [4*11^u, 2*11^u, >=4*11^(u-1)]",
              "example39/family", fx["published_ledger"], [list(lv.params()) for lv in levels],
              flag_only=True)
    lv1 = levels[0]
    rep.check("level-1 code materialized: rank and self-duality", "example39/family",
              [33, True], [lv1.qc.k, bool(duality_class(lv1.qc.lin).esd)])
    chk = sqrt_like_check(levels, 6, c=4 / sqrt(6))
    rep.check_true("square-root-like floor holds for u >= 2 with c = 4/sqrt(6)",
                   "example39/sqrt-like", bool(chk["all_ok"]), chk["per_level"])
    rep.timing_s = time.time() - t0
    return rep


def run_tables(budget: int = 0, long_mode: bool = False) -> RunReport:
    t0 = time.time()
    rep = RunReport("reproduce tables", {})
    fx = load_tables()["three_factor_tables"]
    for q_str, row in fx["base"].items():
        got = three_factor_scan(int(q_str), 100)
        rep.check(f"three-factor moduli over F_{q_str} (m <= 100)",
                  "tables/base-field", row, got)
    for q_str, row in fx["square"].items():
        got = three_factor_scan(int(q_str), 100)
        rep.check(f"three-factor moduli over F_{q_str} (m <= 100)",
                  "tables/square-field", row, got)
    rep.timing_s = time.time() - t0
    return rep


_RUNNERS = {
    "example41": run_example41,
    "example42": run_example42,
    "example43": run_example43,
    "cor35-example": run_cor35,
    "example39": run_example39,
    "tables": run_tables,
}


def run_target(target: str, budget: int = 2**25, long_mode: bool = False) -> list[RunReport]:
    if target != "all" and target not in _RUNNERS:
        raise KeyError(f"unknown reproduce target {target!r}; choose from {TARGETS + ('all',)}")
    names = _RUNNERS if target == "all" else (target,)
    return [_RUNNERS[name](budget=budget, long_mode=long_mode) for name in names]
