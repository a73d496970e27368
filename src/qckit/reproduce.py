"""End-to-end replay of the bundled reference examples.

Each target builds one worked construction from its construction spec
`data/spec_<name>.json` (the tables target re-scans the modulus tables),
re-derives every transcribed claim (factorizations, D-tables, dimensions,
duality flags, bound values, stabilizer parameters, family ledgers, modulus
tables) and reports a pass / fail / flagged status per claim.  "flagged" marks a discrepancy the
suite deliberately surfaces instead of judging (reference values that
disagree with their own stated construction); computed results that
contradict a reference claim outright are failures, with the certificate
included in the report payload.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field as dc_field
from importlib import resources
from math import sqrt


from .lincode import DEFAULT_BUDGET, dual_euclidean, duality_class, min_distance, min_weight_outside, _gram
from .gobound import GoReport, go_bound
from .poly import factor_xm1, three_factor_scan
from .qc import (
    ConstituentAssignment,
    CrtDecomposition,
    FamilyPlan,
    QcCode,
    assemble_qc,
    build_family,
    dim_from_constituents,
    galois_closure_theorem_check,
    qc_duality_class,
    sqrt_like_check,
)
from .quantum import QuantumParams, singleton_audit, transform
from .serial import assignment_from_spec

TARGETS = ("example41", "example42", "example43", "cor35-example", "example39", "tables")


@functools.cache
def _load_data(name: str) -> dict:
    """A data file, parsed once per process; every caller shares the result
    and only reads it."""
    with resources.files("qckit.data").joinpath(name).open("r") as fh:
        return json.load(fh)


def load_tables() -> dict:
    return _load_data("paper_tables.json")


def load_example(name: str) -> tuple[CrtDecomposition, ConstituentAssignment]:
    """A worked example's decomposition and constituents, read from its
    construction spec `data/spec_<name>.json`."""
    return assignment_from_spec(_load_data(f"spec_{name}.json"))


def example_plan(name: str, kind: str, u_max: int, materialize_max: int) -> FamilyPlan:
    """The family grown from a worked example's constituents."""
    decomp, asn = load_example(name)
    return FamilyPlan(decomp.q_field, decomp.m, decomp.ell, asn,
                      u_max=u_max, kind=kind, materialize_max=materialize_max)


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
    fs = factor_xm1(q_field, m)
    got_pairs = [[list(g.coeffs), list(gs.coeffs)] for g, gs in fs.pairs]
    rep.check("x^m-1 reciprocal pair factors", source + "/factors",
              [sorted(pair_coeffs)], [sorted(p) for p in got_pairs])
    rep.check("x^m-1 self-reciprocal factors", source + "/factors",
              sorted(map(tuple, selfrec_coeffs)), sorted(tuple(f.coeffs) for f in fs.selfrec))
    for g, gs in fs.pairs:
        rep.check_true(f"{g} and {gs} are mutual reciprocals", source + "/factors",
                       g.reciprocal() == gs)


def _timed(runner):
    """The runner with its report's timing_s set to the runner's elapsed
    time, read from the monotonic performance counter."""
    @functools.wraps(runner)
    def timed(budget: int = DEFAULT_BUDGET, long_mode: bool = False) -> RunReport:
        t0 = time.perf_counter()
        rep = runner(budget, long_mode)
        rep.timing_s = time.perf_counter() - t0
        return rep
    return timed


def _constituents_and_qc(rep: RunReport, source: str, fx: dict, decomp: CrtDecomposition,
                         asn: ConstituentAssignment, budget: int) -> tuple[QcCode, GoReport]:
    """go_bound's report, whose chain gives the constituents' [n,k,d] check,
    then the assembled code and its dimension check."""
    go = go_bound(decomp, asn, budget)
    d = {c.slot_label: c.distance.value for c in go.chain}
    rep.check("constituent parameters [n,k,d]", source + "/constituents",
              fx["constituent_params"], [[c.n, c.k, d[s.label]] for s, c, _ in asn.entries(decomp)])
    qc = assemble_qc(decomp, asn)
    rep.check("dimension (constituent formula = rank)", source + "/dimension",
              [fx["dim"], fx["dim"]], [dim_from_constituents(decomp, asn), qc.k])
    return qc, go


def _published_css(rep: RunReport, source: str, fx: dict, qc: QcCode) -> QuantumParams:
    """The published CSS parameters and their check."""
    # d is the paper's value, not a certified one (ROADMAP item 1)
    d_pub = fx["css"][2]
    q = QuantumParams(qc.n, 2 * qc.k - qc.n, d_pub, qc.field.order, purity=d_pub,
                      derivation=("published",))
    rep.check("CSS parameters [[n,k,>=d]]", source + "/css", fx["css"], [q.n, q.k, q.d_lower])
    return q


def _audit_published(rep: RunReport, source: str, fx: dict, q: QuantumParams, slack: int):
    """The Singleton audit of the published parameters and the chains of
    codes derived from them by shortening and lengthening."""
    rep.check("quantum Singleton audit", source + "/singleton",
              {"ok": True, "slack": slack, "quantum_mds": False}, singleton_audit(q).to_json())
    for how in ("shorten", "lengthen"):
        p, got = q, []
        for _ in fx[how]:
            p = transform(p, how)
            got.append([p.n, p.k, p.d_lower])
        rep.check(f"{how}ing chain parameters", source + "/derived-table", fx[how], got)


@_timed
def run_example41(budget: int = DEFAULT_BUDGET, long_mode: bool = False) -> RunReport:
    rep = RunReport("reproduce example41", {"budget": budget})
    fx = load_tables()["example41"]
    decomp, asn = load_example("example41")
    _factor_check(rep, "example41", decomp.q_field, 7, fx["pair"], fx["selfrec"])

    sg, sgs = decomp.pair_slots[0]
    rep.check("pair constituent fields", "example41/decomposition",
              [64, 64], [sg.cfield.order, sgs.cfield.order])
    rep.check("self-reciprocal constituent field", "example41/decomposition",
              4, decomp.selfrec_slots[0].cfield.order)
    qc, go = _constituents_and_qc(rep, "example41", fx, decomp, asn, budget)

    dual_rep = qc_duality_class(qc)
    rep.check_true("dual-containing (flat flags and constituent witness agree)",
                   "example41/duality",
                   bool(dual_rep.flags.edc) and bool(dual_rep.agree) and bool(dual_rep.witness_edc))

    gal = galois_closure_theorem_check(qc, 2)
    rep.check_true("Galois closed; flat and constituent sides agree",
                   "example41/galois", gal["flat_closed"] and gal["agree"])

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

    q = _published_css(rep, "example41", fx, qc)
    csse, _ = min_weight_outside(qc.lin, qc.lin, budget)
    rep.results["exact_css_distance"] = csse
    rep.check("exact stabilizer distance attains the published bound",
              "example41/css", fx["css"][2], csse, flag_only=True)
    _audit_published(rep, "example41", fx, q, slack=6)
    return rep


@_timed
def run_example42(budget: int = DEFAULT_BUDGET, long_mode: bool = False) -> RunReport:
    rep = RunReport("reproduce example42", {"budget": budget, "long": long_mode})
    fx = load_tables()["example42"]
    decomp, asn = load_example("example42")
    _factor_check(rep, "example42", decomp.q_field, 7, [[1, 1, 0, 1], [1, 0, 1, 1]], [[1, 1]])
    qc, go = _constituents_and_qc(rep, "example42", fx, decomp, asn, budget)
    rep.check_true("dual-containing", "example42/duality", bool(duality_class(qc.lin).edc))
    rep.check("associated cyclic code distances (all seven subsets)", "example42/d-table",
              sorted(fx["d_table_distances"]),
              sorted(e.distance for e in go.d_table.values()))
    rep.check("bound value d_GO", "example42/d_go", fx["d_go"], go.d_go)

    if long_mode:
        dist = min_distance(qc.lin, budget=budget, mode="exact")
        rep.results["exact_distance"] = dist.d_exact
        rep.check_true("exact minimum distance attains the published bound (>= 14)",
                       "example42/exact-distance", dist.d_exact >= 14, dist.d_exact)

    q = _published_css(rep, "example42", fx, qc)
    _audit_published(rep, "example42", fx, q, slack=26)
    return rep


@_timed
def run_example43(budget: int = DEFAULT_BUDGET, long_mode: bool = False) -> RunReport:
    rep = RunReport("reproduce example43", {"budget": budget})
    fx = load_tables()["example43"]
    plan = example_plan("example43", "EDC", u_max=3, materialize_max=24)
    cs = plan.base.selfrec[0].code
    rep.check("last constituent is an EDC [3,2,2] code", "example43/constituents",
              [3, 2, 2, True],
              [cs.n, cs.k, min_distance(cs).d_exact, duality_class(cs).edc])
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
    rep.check("published logical dimension 3 vs 2k-n from the stated constituents",
              "example43/quantum", fx["published_quantum_k"],
              2 * levels[0].qc.k - levels[0].n, flag_only=True)
    return rep


@_timed
def run_cor35(budget: int = DEFAULT_BUDGET, long_mode: bool = False) -> RunReport:
    rep = RunReport("reproduce cor35-example", {"budget": budget})
    fx = load_tables()["cor35"]
    plan = example_plan("cor35", "ESO", u_max=3, materialize_max=60)
    _factor_check(rep, "cor35-example", plan.q_field, 11, fx["pair"], [[2, 1]])
    cp = plan.base.pairs[0].cprime
    rep.check("first constituent is a [5,2,4] code", "cor35-example/constituents",
              [5, 2, 4], [cp.n, cp.k, min_distance(cp).d_exact])
    cd = dual_euclidean(cp)
    rep.check("its dual is a [5,3,3] code", "cor35-example/constituents",
              [5, 3, 3], [cd.n, cd.k, min_distance(cd).d_exact])
    cs = plan.base.selfrec[0].code
    rep.check("last constituent is the self-orthogonal [5,2,3] code",
              "cor35-example/constituents",
              [5, 2, 3, True],
              [cs.n, cs.k, min_distance(cs).d_exact, duality_class(cs).eso])
    levels = build_family(plan)
    rep.check("family ledger [5*11^u, (5*11^u-1)/2, >=3*11^(u-1)]",
              "cor35-example/family", fx["ledger"], [list(lv.params()) for lv in levels])
    lv1 = levels[0]
    gram_zero = not _gram(plan.q_field, lv1.qc.lin.gen, lv1.qc.lin.gen).any()
    rep.check("level-1 code: rank 27 and G.G^T = 0 (ESO)", "cor35-example/family",
              [27, True], [lv1.qc.k, gram_zero])
    return rep


@_timed
def run_example39(budget: int = DEFAULT_BUDGET, long_mode: bool = False) -> RunReport:
    rep = RunReport("reproduce example39", {"budget": budget})
    fx = load_tables()["example39"]
    plan = example_plan("example39", "ESD", u_max=3, materialize_max=70)
    _factor_check(rep, "example39", plan.q_field, 11, fx["pair"], [[4, 1]])
    cp = plan.base.pairs[0].cprime
    rep.check("first constituent is a [6,3] GRS code (MDS: d = 4)",
              "example39/constituents", [6, 3], [cp.n, cp.k])
    cs = plan.base.selfrec[0].code
    rep.check("last constituent is the self-dual [6,3,4] code",
              "example39/constituents",
              [6, 3, 4, True],
              [cs.n, cs.k, min_distance(cs).d_exact, duality_class(cs).esd])
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
    return rep


@_timed
def run_tables(budget: int = DEFAULT_BUDGET, long_mode: bool = False) -> RunReport:
    rep = RunReport("reproduce tables", {})
    fx = load_tables()["three_factor_tables"]
    for kind in ("base", "square"):
        for q_str, row in fx[kind].items():
            rep.check(f"three-factor moduli over F_{q_str} (m <= 100)",
                      f"tables/{kind}-field", row, three_factor_scan(int(q_str), 100))
    return rep


_RUNNERS = {
    "example41": run_example41,
    "example42": run_example42,
    "example43": run_example43,
    "cor35-example": run_cor35,
    "example39": run_example39,
    "tables": run_tables,
}


def run_target(target: str, budget: int = DEFAULT_BUDGET, long_mode: bool = False) -> list[RunReport]:
    if target != "all" and target not in _RUNNERS:
        raise KeyError(f"unknown reproduce target {target!r}; choose from {TARGETS + ('all',)}")
    names = _RUNNERS if target == "all" else (target,)
    return [_RUNNERS[name](budget=budget, long_mode=long_mode) for name in names]
