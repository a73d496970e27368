"""The worked examples' construction specs in `qckit/data/`: where their
literal rows come from, the reference-table copies the benchmark's family
plans read, and the package-data globs that ship them."""

import functools
import json
from fnmatch import fnmatch
from importlib import resources
from pathlib import Path

import pytest

from qckit.gf import restrict
from qckit.gobound import go_bound
from qckit.lincode import grs_code
from qckit import lincode, qc, quantum, reproduce
from qckit.reproduce import load_example, load_tables

DATA = resources.files("qckit.data")


def _spec(name):
    return json.loads((DATA / f"spec_{name}.json").read_text())


def test_cor35_second_row_is_the_powers_of_its_evaluation_point():
    # the generator "alpha" of the worked example is the g slot's own
    # evaluation point: the residue of x in F_3[x]/(g), i.e. the canonical root of g
    dec, _ = load_example("cor35")
    sg = dec.pair_slots[0][0]
    a = restrict(sg.cfield, dec.common_field, dec.alpha_pow(sg.exponent))
    assert _spec("cor35")["pairs"][0]["cprime_rows"][1] == [sg.cfield.pow_(a, i) for i in range(1, 6)]


@pytest.mark.parametrize("name,n", [("example42", 8), ("example39", 6)])
def test_grs_constituents_equal_grs_code_on_their_points(name, n):
    # C' is the [n,3] GRS code on the points 0, 1, ..., n - 1 with all multipliers 1
    cprime = load_example(name)[1].pairs[0].cprime
    assert cprime == grs_code(cprime.field, range(n), [1] * n, 3)


@pytest.mark.parametrize("name", ["example41", "example42"])
def test_engine_certified_examples_give_no_distances(name):
    # reproduce reads these examples' constituent [n,k,d] rows from go_bound's
    # chain, so the rows are the engine's only while the specs give no distance
    spec = _spec(name)
    given = [key for ent in spec["pairs"] + spec["selfrec"] for key in ent if key.endswith("distance")]
    assert given == []
    assert {e.distance.how for e in go_bound(*load_example(name)).chain} == {"enumerated"}


@pytest.mark.parametrize("name", ["cor35", "example43", "example39"])
def test_reference_table_rows_match_the_specs(name):
    # perfbench's family plans read these rows from paper_tables.json
    fx, spec = load_tables()[name], _spec(name)
    assert fx["cs_rows"] == spec["selfrec"][0]["rows"]
    if name == "cor35":
        assert fx["cprime_first_row"] == spec["pairs"][0]["cprime_rows"][0]


def test_package_data_globs_cover_every_data_and_schema_file():
    # a data or schema file that no glob matches would be left out of the wheel
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["qckit"]
    package = root / "src" / "qckit"
    files = [path.relative_to(package).as_posix()
             for sub in ("data", "schemas") for path in (package / sub).iterdir()
             if path.is_file() and path.suffix != ".py"]
    assert "data/spec_cor35.json" in files
    assert [f for f in files if not any(fnmatch(f, g) for g in globs)] == []


def test_data_files_are_parsed_once_and_left_unchanged(monkeypatch):
    # the runners share one parse of each data file, so none may write to it:
    # two reproduce all passes, rendered and serialized, parse each file once
    # and leave every parse equal to the file
    load = functools.cache(reproduce._load_data.__wrapped__)
    monkeypatch.setattr(reproduce, "_load_data", load)
    for _ in range(2):
        for report in reproduce.run_target("all"):
            report.render()
            json.dumps(report.to_json())
    names = ["paper_tables.json"] + [f"spec_{name}.json" for name in
                                     ("example41", "example42", "example43", "cor35", "example39")]
    assert load.cache_info().misses == len(names)
    for name in names:
        assert load(name) == json.loads((DATA / name).read_text()), name
    assert load_tables() is load("paper_tables.json")


def test_warm_reproduce_pass_work(monkeypatch):
    # a warm reproduce all pass makes exactly 25 distance-engine runs, at most
    # 53 eliminations and at most 6 duals: go_bound's chain gives the
    # constituent [n,k,d] rows, so no constituent is enumerated twice
    counts = dict.fromkeys(("engine", "elimination", "dual"), 0)

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    reproduce.run_target("all")
    monkeypatch.setattr(lincode, "_min_weight", counted(lincode._min_weight, "engine"))
    monkeypatch.setattr(lincode, "_rref", counted(lincode._rref, "elimination"))
    dual = counted(lincode.dual_euclidean, "dual")
    for module in (lincode, qc, quantum, reproduce):
        monkeypatch.setattr(module, "dual_euclidean", dual)
    reproduce.run_target("all")
    assert counts["engine"] == 25
    assert counts["elimination"] <= 53 and counts["dual"] <= 6, counts
