import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "setup_s": {"better": "lower", "bound": 0.25},
    "ops_per_s": {"better": "higher", "bound": 0.25},
    "op_p50_s": {"better": "lower", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
}
# four pairs of synthetic runs per metric: (parent values, change values)
VALUES = {
    "setup_s": ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3]),  # 30 % slower
    "ops_per_s": ([10, 20, 30, 40], [20, 25, 30, 35]),  # parent IQR 15 > 0.25 x 25
    "op_p50_s": ([1, 2, 3, 4], [0.5, 0.6, 0.7, 0.8]),  # as wide, but every change run wins
    "peak_rss_mb": ([100, 100, 101, 100], [105, 104, 105, 106]),  # 5 % more, bound 10 %
}


def test_summarize_writes_bound_and_verdict():
    runs = [{"pair": i, "workload": "w", "side": side, "correct": True, "failed": 0,
             "metrics": {name: VALUES[name][k][i] for name in METRICS}}
            for i in range(4) for k, side in enumerate(("parent", "change"))]
    got = bench_pairs.summarize(runs, ["w"], METRICS)["w"]
    assert got["pairs"] == 4 and got["all_correct"] and got["failed_ops"] == 0
    assert {name: (m["bound"], m["verdict"]) for name, m in got["metrics"].items()} == {
        "setup_s": (0.25, "worse"),
        "ops_per_s": (0.25, "unresolved"),
        "op_p50_s": (0.25, "within"),
        "peak_rss_mb": (0.1, "within"),
    }
    assert got["metrics"]["op_p50_s"]["change_wins"] == 4


def test_summarize_marks_a_gain_only_past_the_parent_iqr():
    # ten pairs of ops_per_s; a gain needs nine tenths of the pairs won and
    # the medians further apart than the parent's IQR
    parent = [50, 52, 54, 56, 58, 50, 52, 54, 56, 58]  # median 54, IQR 4
    cases = {
        "clear": ([p + 10 for p in parent], True),
        "one pair lost": ([p + 10 for p in parent[:8]] + [40, 68], True),
        "two pairs lost": ([p + 10 for p in parent[:8]] + [40, 40], False),
        "within the IQR": ([p + 3 for p in parent], False),
        "slower": ([p - 10 for p in parent], False),
    }
    metrics = {"ops_per_s": {"better": "higher", "bound": 0.25}}
    for name, (change, gain) in cases.items():
        runs = [{"pair": i, "workload": "w", "side": side, "correct": True, "failed": 0,
                 "metrics": {"ops_per_s": values[i]}}
                for i in range(10) for side, values in (("parent", parent), ("change", change))]
        got = bench_pairs.summarize(runs, ["w"], metrics)["w"]["metrics"]["ops_per_s"]
        assert got["gain"] is gain, (name, got)
