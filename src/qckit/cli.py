"""Command-line front door.

Subcommands: factor, cosets, decompose, build, verify, gobound, family,
quantum, reproduce.  Exit codes: 0 success, 1 domain or check failure,
2 usage errors.  JSON output (--json / --out) carries the same values as the
text rendering.
"""

from __future__ import annotations

import argparse
import sys

from .errors import QCKitError
from .gf import field_from_order
from .gobound import go_bound
from .lincode import DEFAULT_BUDGET, duality_class, min_distance
from .poly import cyclotomic_cosets, factor_xm1
from .qc import (
    DEFAULT_MATERIALIZE_MAX,
    FamilyPlan,
    assemble_qc,
    build_family,
    decompose_ring,
    qc_duality_class,
)
from .quantum import from_dual_containing, singleton_audit, transform_chain
from .reproduce import TARGETS, run_target
from .serial import assignment_from_spec, code_from_json, dump_json, load_json


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "out", None):
        dump_json(payload, args.out)
    if getattr(args, "json", False):
        print(dump_json(payload))
    else:
        print(text)


def cmd_factor(args) -> int:
    q_field = field_from_order(args.q)
    fs = factor_xm1(q_field, args.m)
    lines = [f"x^{args.m} - 1 over GF({args.q}): delta = {fs.delta}"]
    for g, gs in fs.pairs:
        lines.append(f"  pair: g = {g}   g* = {gs}   (cosets of {fs.rep(g)}, {fs.rep(gs)})")
    for f in fs.selfrec:
        lines.append(f"  self-reciprocal: {f}   (coset of {fs.rep(f)})")
    _emit(args, fs.to_json(), "\n".join(lines))
    return 0


def cmd_cosets(args) -> int:
    table = cyclotomic_cosets(args.q, args.m)
    text = f"{args.q}-cyclotomic cosets mod {args.m}:\n" + "\n".join(
        f"  C_{c[0]} = {{{', '.join(map(str, c))}}}" for c in table.cosets
    )
    _emit(args, table.to_json(), text)
    return 0


def cmd_decompose(args) -> int:
    q_field = field_from_order(args.q)
    decomp = decompose_ring(q_field, args.m, args.ell)
    lines = [f"R = (GF({args.q})[x]/(x^{args.m}-1))^{args.ell}: splitting field GF({args.q}^{decomp.w})"]
    for s in decomp.slots:
        lines.append(
            f"  slot {s.label}: factor {s.factor}, evaluation exponent {s.exponent}, "
            f"constituents over GF({s.cfield.order})"
            + (" [euclidean slot]" if s.exceptional else "")
        )
    _emit(args, decomp.to_json(), "\n".join(lines))
    return 0


def cmd_build(args) -> int:
    decomp, assignment = assignment_from_spec(load_json(args.spec))
    qc = assemble_qc(decomp, assignment)
    report = qc_duality_class(qc)
    dist = min_distance(qc.lin, budget=args.budget, mode="bound")
    payload = {
        "code": qc.lin.to_json(),
        "m": qc.m,
        "ell": qc.ell,
        "k": qc.k,
        "duality": report.to_json(),
        "distance": dist.to_json(),
    }
    text = (f"built [{qc.n},{qc.k}] QC code over GF({qc.field.order}), m={qc.m}, ell={qc.ell}\n"
            f"flags: {report.flags.to_json()}\ndistance: {dist.to_json()}")
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    raw = load_json(args.code)
    code = code_from_json(raw.get("code", raw))
    flags = duality_class(code)
    dist = min_distance(code, budget=args.budget, mode="bound")
    payload = {"n": code.n, "k": code.k, "duality": {"flags": flags.to_json()},
               "distance": dist.to_json()}
    _emit(args, payload,
          f"[{code.n},{code.k}] over GF({code.field.order})\nflags: {flags.to_json()}\n"
          f"distance: {dist.to_json()}")
    return 0


def cmd_gobound(args) -> int:
    decomp, assignment = assignment_from_spec(load_json(args.spec))
    report = go_bound(decomp, assignment, args.budget)
    lines = ["constituent chain (sorted by distance):"]
    for c in report.chain:
        lines.append(f"  {c.slot_label}: exponent {c.exponent}, degree {c.degree}, "
                     f"d = {c.distance.value}{'' if c.distance.exact else ' (lower bound)'}")
    lines.append("associated cyclic codes:")
    for subset in sorted(report.d_table, key=lambda s: (len(s), s)):
        e = report.d_table[subset]
        lines.append(f"  D_{{{','.join(map(str, subset))}}} = <{e.gen_poly}>  d = {e.distance}"
                     + ("" if e.exact else " (lower bound)"))
    for subset in sorted(report.r_values, key=len):
        lines.append(f"  R_{{{','.join(map(str, subset))}}} = {report.r_values[subset]}")
    lines.append(f"d_GO = {report.d_go}  (published telescoped formula; not a certified bound)")
    lines.append(f"d_sound = {report.d_sound}  (certified lower bound"
                 + ("" if report.exact_mode else ", from lower-bounded ingredients") + ")")
    for f in report.findings:
        lines.append(f"finding: {f}")
    _emit(args, report.to_json(), "\n".join(lines))
    return 0


def cmd_family(args) -> int:
    decomp, assignment = assignment_from_spec(load_json(args.spec))
    plan = FamilyPlan(decomp.q_field, decomp.m, decomp.ell, assignment,
                      u_max=args.levels, kind=args.kind,
                      materialize_max=args.materialize_max, budget=args.budget)
    levels = build_family(plan)
    lines = [f"{args.kind} family over GF({decomp.q_field.order}), m={decomp.m}, ell={decomp.ell}:"]
    for lv in levels:
        status = ""
        if lv.qc is not None:
            status = f"  materialized: rank_ok={lv.rank_checked} {args.kind.lower()}_ok={lv.duality_checked}"
        lines.append(f"  u={lv.u}: [{lv.n}, {lv.k}, >={lv.d_lower}]{status}")
    _emit(args, {"kind": args.kind, "levels": [lv.to_json() for lv in levels]}, "\n".join(lines))
    return 0


def cmd_quantum(args) -> int:
    raw = load_json(args.code)
    code = code_from_json(raw.get("code", raw))
    params = from_dual_containing(code, mode="exact" if args.exact else "bound",
                                  budget=args.budget)
    if args.chain:
        params = transform_chain(params, args.chain)
    audit = singleton_audit(params)
    payload = {"params": params.to_json(), "singleton": audit.to_json()}
    _emit(args, payload, f"{params.label()}  singleton: {audit.to_json()}")
    return 0


def cmd_reproduce(args) -> int:
    reports = run_target(args.target, budget=args.budget, long_mode=args.long)
    payload = {"reports": [r.to_json() for r in reports]}
    text = "\n".join(r.render() for r in reports)
    _emit(args, payload, text)
    return 1 if any(r.failed for r in reports) else 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qckit",
                                description="quasi-cyclic code construction and certification")
    sub = p.add_subparsers(dest="command", required=True)

    def budget_arg(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
        return value

    def add_common(sp, budget=True):
        sp.add_argument("--json", action="store_true", help="emit JSON to stdout")
        sp.add_argument("--out", help="write JSON to a file")
        if budget:
            sp.add_argument("--budget", type=budget_arg, default=DEFAULT_BUDGET,
                            help="codeword-enumeration cap (default 2^24)")

    sp = sub.add_parser("factor", help="factor x^m - 1 over GF(q)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    add_common(sp, budget=False)
    sp.set_defaults(fn=cmd_factor)

    sp = sub.add_parser("cosets", help="q-cyclotomic cosets modulo m")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    add_common(sp, budget=False)
    sp.set_defaults(fn=cmd_cosets)

    sp = sub.add_parser("decompose", help="CRT decomposition of (GF(q)[x]/(x^m-1))^ell")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    add_common(sp, budget=False)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("build", help="assemble a QC code from a construction spec")
    sp.add_argument("--spec", required=True)
    add_common(sp)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("verify", help="duality flags and distance report for a code file")
    sp.add_argument("--code", required=True)
    add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("gobound", help="constituent distance bounds and D_I table")
    sp.add_argument("--spec", required=True)
    add_common(sp)
    sp.set_defaults(fn=cmd_gobound)

    sp = sub.add_parser("family", help="recursive self-orthogonal family ledger")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument("--materialize-max", type=int, default=DEFAULT_MATERIALIZE_MAX)
    sp.add_argument("--kind", choices=["ESO", "EDC", "ESD"], default="ESO")
    add_common(sp)
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("quantum", help="CSS parameters from a dual-containing code")
    sp.add_argument("--code", required=True)
    sp.add_argument("--exact", action="store_true", help="enumerate the exact stabilizer distance")
    sp.add_argument("--chain", default="", help='transforms, e.g. "shorten,shorten"')
    add_common(sp)
    sp.set_defaults(fn=cmd_quantum)

    sp = sub.add_parser("reproduce", help="replay the bundled reference examples")
    sp.add_argument("target", choices=list(TARGETS) + ["all"])
    sp.add_argument("--long", action="store_true",
                    help="add the exact-distance run, capped by --budget like every run")
    add_common(sp)
    sp.set_defaults(fn=cmd_reproduce)

    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except QCKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
