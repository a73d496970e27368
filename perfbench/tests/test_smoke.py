"""Smoke tests of the benchmark harness: one operation per workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first_family_seed_with(recipe: str) -> int:
    """A seed whose first family operation is the given (small) recipe."""
    return next(s for s in range(100) if workloads.Family(s).order(0)[0] == recipe)


SEEDS = {"reproduce": 1, "distance": 1, "family": _first_family_seed_with("example43")}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEEDS[workload]),
         "--seconds", "1", "--trace", str(trace), "--max-ops", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        summary = json.loads(lines[-2].split(": ", 1)[1])
        assert summary["stress"]["ok"], summary["stress"]


def _corrupt(workload):
    """Make the first operation's pinned expectation wrong."""
    if isinstance(workload, workloads.Distance):
        shape, variant = workload.cycle(0)[0].label.split("/v")
        key = next(k for k in workload.pool if workloads.shape_id(k[0]) == shape and k[1] == int(variant))
        rows, d = workload.pool[key]
        workload.pool[key] = (rows, d + 1)
    elif isinstance(workload, workloads.Family):
        workload.pins["example43"]["levels"][1][2] += 1
    else:
        workload.pins["targets"]["example41"]["results"]["exact_distance"] = 7


@pytest.mark.parametrize("name", ["distance", "family", "reproduce"])
def test_wrong_expected_value_is_a_failed_operation(name):
    workload = workloads.WORKLOADS[name](SEEDS[name])
    workload.setup()
    good = worker.measure(workload, 0, max_ops=1)
    assert len(good["samples"]) == 1 and good["failures"] == []
    _corrupt(workload)
    bad = worker.measure(workload, 0, max_ops=1)
    assert len(bad["samples"]) == 1 and len(bad["failures"]) == 1


def test_tracer_wraps_every_binding_and_restores_them():
    import qckit
    from qckit import gf, gobound, lincode, qc, quantum, reproduce

    original = lincode.min_distance
    holders = [lincode, qc, gobound, quantum, reproduce, qckit]
    runner = reproduce._RUNNERS["example41"]
    tables = gf.GF.tables
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(m, "min_distance") is not original for m in holders)
        assert reproduce._RUNNERS["example41"] is not runner
        assert gf.GF.tables is not tables
        f2 = qckit.field_make(2, 1)
        qckit.min_distance(qckit.code_from_rows(f2, 3, [[1, 1, 0], [0, 1, 1]]))
    finally:
        tracer.uninstall()
    assert all(getattr(m, "min_distance") is original for m in holders)
    assert reproduce._RUNNERS["example41"] is runner
    assert gf.GF.tables is tables
    assert tracer.calls["lincode.min_distance"] == 1
    assert tracer.calls["gf.field_make"] == 1 and tracer.calls["lincode.code_from_rows"] == 1
    assert tracer.incl_s["lincode.min_distance"] >= tracer.self_s["lincode.min_distance"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("distance", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
