"""JSON (de)serialization of fields, codes, and construction specs.

Element serialization is the integer index of the element ordering; a field
is {p, t, modulus}; a code is {field, n, rows} with rows of element indices.
A construction spec describes one constituent assignment:

    {"q": {"p": P, "t": T}, "m": M, "ell": L,
     "pairs":   [{"rep": v, "cprime_rows": [[...]],
                  "cdoubleprime": "dual" | [[...]],
                  "cprime_distance": {"value": d, "exact": true},   # optional
                  "cdoubleprime_distance": {...}}],                 # optional
     "selfrec": [{"rep": u, "rows": [[...]],
                  "distance": {...}}]}                              # optional

Reps may be any member of the intended cyclotomic coset.
"""

from __future__ import annotations

import json
import operator

from .errors import FieldMismatch, NotABoolean, NotAnInteger, QCKitError
from .gf import GF, field_make
from .lincode import LinearCode, code_from_rows
from .qc import (
    ConstituentAssignment,
    CrtDecomposition,
    DistanceInfo,
    PairAssignment,
    SelfrecAssignment,
    assignment_all_zero,
    decompose_ring,
)


def _integer(obj: dict, key: str) -> int:
    """obj[key] as an int; NotAnInteger for anything else, so a float is
    never truncated and a boolean (JSON true) never reads as 1."""
    value = obj[key]
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise NotAnInteger(f"{key!r} must be an integer, got {value!r}")


def field_from_json(obj: dict) -> GF:
    fld = field_make(_integer(obj, "p"), _integer(obj, "t"))
    if "modulus" in obj and list(obj["modulus"]) != list(fld.modulus):
        raise FieldMismatch("non-canonical modulus in field description")
    return fld


def code_from_json(obj: dict) -> LinearCode:
    fld = field_from_json(obj["field"])
    return code_from_rows(fld, _integer(obj, "n"), obj.get("rows", []))


def _distance_from_json(obj) -> DistanceInfo | None:
    if obj is None:
        return None
    exact = obj.get("exact", False)
    if not isinstance(exact, bool):  # bool("false") would mark the distance exact
        raise NotABoolean(f"'exact' must be a boolean, got {exact!r}")
    return DistanceInfo(_integer(obj, "value"), exact, obj.get("how", "given"))


def assignment_from_spec(spec: dict) -> tuple[CrtDecomposition, ConstituentAssignment]:
    q_field = field_from_json(spec["q"])
    m = _integer(spec, "m")
    ell = _integer(spec, "ell")
    decomp = decompose_ring(q_field, m, ell)
    # every slot the spec leaves out holds the zero code
    zero = assignment_all_zero(decomp)
    pairs, selfrec = list(zero.pairs), list(zero.selfrec)
    for ent in spec.get("pairs", []):
        slot = decomp.slot_of(_integer(ent, "rep"))
        if slot.kind == "selfrec":
            raise QCKitError(f"rep {ent['rep']} does not belong to a reciprocal pair")
        sg, sgs = decomp.pair_slots[slot.index]
        cdp = ent.get("cdoubleprime", "dual")
        pairs[slot.index] = PairAssignment(
            code_from_rows(sg.cfield, ell, ent["cprime_rows"]),
            None if cdp == "dual" else code_from_rows(sgs.cfield, ell, cdp),
            _distance_from_json(ent.get("cprime_distance")),
            _distance_from_json(ent.get("cdoubleprime_distance")),
        )
    for ent in spec.get("selfrec", []):
        slot = decomp.slot_of(_integer(ent, "rep"))
        if slot.kind != "selfrec":
            raise QCKitError(f"rep {ent['rep']} is not a self-reciprocal slot")
        selfrec[slot.index] = SelfrecAssignment(
            code_from_rows(slot.cfield, ell, ent["rows"]),
            _distance_from_json(ent.get("distance")),
        )
    assignment = ConstituentAssignment(tuple(pairs), tuple(selfrec))
    assignment.validate(decomp)
    return decomp, assignment


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj: dict, path: str | None = None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
