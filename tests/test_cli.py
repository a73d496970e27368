import json
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from qckit.cli import main
from qckit.errors import BudgetExceeded
from qckit.reproduce import run_example42


def _registry():
    schemas = {}
    root = resources.files("qckit.schemas")
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            schemas[f"qckit/{entry.name}"] = json.loads(entry.read_text())
    reg = Registry()
    for uri, schema in schemas.items():
        reg = reg.with_resource(uri, Resource.from_contents(schema))
    return schemas, reg


SCHEMAS, REGISTRY = _registry()


def validate(payload, name):
    Draft7Validator(SCHEMAS[f"qckit/{name}"], registry=REGISTRY).validate(payload)


def run_json(argv, capsys):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


SPEC41 = {
    "q": {"p": 2, "t": 2}, "m": 7, "ell": 3,
    "pairs": [{"rep": 1, "cprime_rows": [[2, 2, 2]], "cdoubleprime": "dual"}],
    "selfrec": [{"rep": 0, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
}


@pytest.fixture
def spec41(tmp_path):
    path = tmp_path / "spec41.json"
    path.write_text(json.dumps(SPEC41))
    validate(SPEC41, "build_spec.json")
    return str(path)


def test_factor_command(capsys):
    rc, payload = run_json(["factor", "--q", "4", "--m", "7"], capsys)
    assert rc == 0
    validate(payload, "factor.json")
    assert payload["pairs"] == [[[1, 1, 0, 1], [1, 0, 1, 1]]]
    assert payload["selfrec"] == [[1, 1]]


def test_factor_not_coprime_exit_code(capsys):
    assert main(["factor", "--q", "2", "--m", "4"]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--q", "4"])  # missing --m
    assert exc.value.code == 2


def test_cosets_command(capsys):
    rc, payload = run_json(["cosets", "--q", "2", "--m", "7"], capsys)
    assert rc == 0
    validate(payload, "cosets.json")
    assert payload["cosets"] == [[0], [1, 2, 4], [3, 5, 6]]


def test_decompose_command(capsys):
    rc, payload = run_json(["decompose", "--q", "4", "--m", "7", "--ell", "3"], capsys)
    assert rc == 0
    validate(payload, "decompose.json")
    assert [s["constituent_order"] for s in payload["slots"]] == [64, 64, 4]


def test_build_verify_round_trip(tmp_path, spec41, capsys):
    out = tmp_path / "code.json"
    rc, built = run_json(["build", "--spec", spec41, "--out", str(out)], capsys)
    assert rc == 0
    validate(built, "build.json")
    validate(built["code"], "code.json")
    assert built["k"] == 12 and built["duality"]["flags"]["EDC"]

    rc, verified = run_json(["verify", "--code", str(out)], capsys)
    assert rc == 0
    validate(verified, "verify.json")
    # round trip: the verify flags and distance equal the build-time ones
    assert json.dumps(verified["duality"]["flags"], sort_keys=True) == \
        json.dumps(built["duality"]["flags"], sort_keys=True)
    assert json.dumps(verified["distance"], sort_keys=True) == \
        json.dumps(built["distance"], sort_keys=True)


def test_build_over_budget_reports_an_interval(tmp_path, spec41, capsys):
    # q^k = 4^12 exceeds the budget: the engine still runs, capped at 100
    # codewords, and reports the certified interval around d = 5
    out = tmp_path / "code.json"
    rc, built = run_json(["build", "--spec", spec41, "--budget", "100", "--out", str(out)], capsys)
    assert rc == 0
    validate(built, "build.json")
    dist = built["distance"]
    assert dist["mode"] == "lower-upper" and dist["d_exact"] is None
    assert dist["enumerated"] == dist["budget"] == 100
    assert 1 <= dist["d_lower"] <= 5 <= dist["d_upper"]
    rc, verified = run_json(["verify", "--code", str(out), "--budget", "100"], capsys)
    assert rc == 0 and verified["distance"] == dist


def test_verify_rejects_non_integral_rows(tmp_path, capsys):
    # JSON rows come from outside the program: 0.5 and 1.9 are not element
    # indices of F_5 and must not be truncated to the row [0, 1]
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"field": {"p": 5, "t": 1}, "n": 2, "rows": [[0.5, 1.9]]}))
    assert main(["verify", "--code", str(path)]) == 1
    assert "non-integral" in capsys.readouterr().err


def test_negative_budget_is_a_usage_error(tmp_path, spec41, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--spec", spec41, "--budget", "-5"])
    assert exc.value.code == 2 and "--budget" in capsys.readouterr().err


def test_gobound_command(spec41, capsys):
    rc, payload = run_json(["gobound", "--spec", spec41], capsys)
    assert rc == 0
    validate(payload, "gobound.json")
    assert payload["d_go"] == 7
    assert payload["d_sound"] == 3
    assert payload["d_table"]["D_3"]["distance"] == 7


def test_family_command(tmp_path, capsys):
    spec = {
        "q": {"p": 3, "t": 1}, "m": 11, "ell": 5,
        "pairs": [{"rep": 2,
                   "cprime_rows": [[1, 2, 1, 2, 1], [3, 9, 27, 81, 1]],
                   "cdoubleprime": "dual",
                   "cprime_distance": {"value": 4, "exact": True},
                   "cdoubleprime_distance": {"value": 3, "exact": True}}],
        "selfrec": [{"rep": 0, "rows": [[1, 1, 1, 0, 0], [1, 2, 0, 1, 0]],
                     "distance": {"value": 3, "exact": True}}],
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(spec))
    validate(spec, "build_spec.json")
    rc, payload = run_json(["family", "--spec", str(path), "--levels", "3",
                            "--materialize-max", "60"], capsys)
    assert rc == 0
    validate(payload, "family.json")
    assert [(lv["n"], lv["k"], lv["d_lower"]) for lv in payload["levels"]] == \
        [(55, 27, 3), (605, 302, 33), (6655, 3327, 363)]
    assert payload["levels"][0]["materialized"]


def test_quantum_command(tmp_path, spec41, capsys):
    out = tmp_path / "code.json"
    main(["build", "--spec", spec41, "--out", str(out)])
    capsys.readouterr()  # drain the build's text output
    rc, payload = run_json(["quantum", "--code", str(out)], capsys)
    assert rc == 0
    validate(payload, "quantum.json")
    assert payload["params"]["n"] == 21 and payload["params"]["k"] == 3
    # d = 5 is certified, and the dual's lower bound exceeds it: exact
    assert payload["params"]["d_lower"] == payload["params"]["d_exact"] == 5
    # 100 codewords certify only d >= 2, so nothing is exact
    rc, payload = run_json(["quantum", "--code", str(out), "--budget", "100"], capsys)
    assert rc == 0 and payload["params"]["d_lower"] == 2 and payload["params"]["d_exact"] is None
    rc, payload = run_json(["quantum", "--code", str(out), "--chain", "shorten,shorten"], capsys)
    assert rc == 0
    assert payload["params"]["n"] == 19 and payload["params"]["k"] == 5


def test_reproduce_tables_command(capsys):
    rc, payload = run_json(["reproduce", "tables"], capsys)
    assert rc == 0
    validate(payload, "reproduce.json")
    assert all(c["status"] == "pass" for c in payload["reports"][0]["checks"])


def test_reproduce_flagged_is_not_failure(capsys):
    rc, payload = run_json(["reproduce", "example39"], capsys)
    assert rc == 0  # flagged discrepancies do not fail the run
    statuses = {c["status"] for c in payload["reports"][0]["checks"]}
    assert "flagged" in statuses and "fail" not in statuses


def test_reproduce_example41_fails_honestly(capsys):
    # the published exact-distance claim does not hold (see the README section
    # "Reference-material defects found by the suite"); the reproduction
    # reports it as a failure and exits nonzero
    rc, payload = run_json(["reproduce", "example41"], capsys)
    assert rc == 1
    fails = [c for c in payload["reports"][0]["checks"] if c["status"] == "fail"]
    assert len(fails) == 1
    assert "exact minimum distance" in fails[0]["claim"]
    assert payload["reports"][0]["results"]["exact_distance"] == 5


def test_reproduce_long_respects_budget():
    # --budget caps the exact-distance run of --long like every other run;
    # d = 8 certifies only after 348,872 codewords
    with pytest.raises(BudgetExceeded):
        run_example42(budget=1000, long_mode=True)
    assert main(["reproduce", "example42", "--long", "--budget", "1000"]) == 1


def _without_timing(value):
    if isinstance(value, dict):
        return {k: _without_timing(v) for k, v in value.items() if k != "timing_s"}
    if isinstance(value, list):
        return [_without_timing(v) for v in value]
    return value


def test_reproduce_all_matches_pinned_output(capsys):
    # every report's checks and results, pinned from an earlier release: a
    # change to the library that alters any reported value shows here
    pinned = json.loads((Path(__file__).parent / "data" / "reproduce_all.json").read_text())
    rc, payload = run_json(["reproduce", "all"], capsys)
    assert rc == 1  # example41's published exact distance fails
    assert _without_timing(payload) == pinned


def test_spec_rep_leniency_and_distance_entries(tmp_path, capsys):
    # a rep may be any member of its coset; distance entries pass through
    spec = {
        "q": {"p": 2, "t": 2}, "m": 7, "ell": 3,
        "pairs": [{"rep": 5,  # member of the g*-coset {3,5,6}: same pair
                   "cprime_rows": [[2, 2, 2]],
                   "cdoubleprime": "dual",
                   "cprime_distance": {"value": 3, "exact": True}}],
        "selfrec": [{"rep": 0, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     "distance": {"value": 1, "exact": True}}],
    }
    path = tmp_path / "lenient.json"
    path.write_text(json.dumps(spec))
    rc, payload = run_json(["build", "--spec", str(path)], capsys)
    assert rc == 0 and payload["k"] == 12


def test_unassigned_slots_default_to_zero(tmp_path, capsys):
    spec = {"q": {"p": 2, "t": 2}, "m": 7, "ell": 3,
            "selfrec": [{"rep": 0, "rows": [[1, 1, 1]]}]}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(spec))
    rc, payload = run_json(["build", "--spec", str(path)], capsys)
    assert rc == 0 and payload["k"] == 1
    assert payload["distance"]["d_exact"] == 21  # repetition-like single slot
