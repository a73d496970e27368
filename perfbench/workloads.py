"""The benchmark's workloads: inputs made from a seed, one timed call into
qckit per operation, and a check of every output against pinned values.

qckit is imported inside `setup()`, never at module import, so that the
import is part of the measured set-up.  Operations look qckit functions up
through their modules at call time, so the tracer's wrappers take effect
once installed.

A workload is consumed in cycles.  Every cycle holds the same mix of
operations (the seed fixes the order and, for `distance`, which pinned
variant of each code shape runs), so runs that complete the same number of
cycles did the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

PINS = Path(__file__).resolve().parent / "pins"

MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """Endless stream of 64-bit words; stable across Python and numpy versions."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def load_pins(name: str) -> dict:
    with open(PINS / f"{name}.json") as fh:
        return json.load(fh)


def json_normal(value):
    """Tuples to lists and non-string keys to strings, as JSON would store them."""
    return json.loads(json.dumps(value, default=lambda o: o.to_json()))


@dataclass
class Op:
    """One operation: `run` is the timed call into qckit; `check` returns the
    list of problems with its result (empty when the output is correct)."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def stress(self, tracer, op_seconds: float) -> dict:
        """Share of traced operation time in the layers this workload was
        chosen to exercise, against the share it must reach."""
        raise NotImplementedError

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    @staticmethod
    def _warm_fields(qckit, pts) -> None:
        """Build element tables (and log tables above the table limit)."""
        for p, t in pts:
            field = qckit.field_make(p, t)
            if field.has_tables:
                field.tables()
            else:
                field.inv(field.gen)


# ---------------------------------------------------------------------------
# reproduce: the in-process `qckit reproduce all`


class Reproduce(Workload):
    """One operation is one pass over the six reproduce targets; the seed
    fixes their order within each pass."""

    name = "reproduce"
    FIELDS = ((2, 1), (2, 2), (3, 1), (5, 1), (2, 3), (2, 6), (3, 5), (5, 5))

    def setup(self) -> None:
        import qckit
        from qckit import lincode, reproduce

        self._warm_fields(qckit, self.FIELDS)
        reproduce.load_tables()
        self.reproduce = reproduce
        self.budget = lincode.DEFAULT_BUDGET  # the CLI default
        self.pins = load_pins("reproduce")

    def cycle(self, index: int) -> list[Op]:
        order = list(self.reproduce.TARGETS)
        self._rng(index).shuffle(order)
        return [Op("pass:" + ",".join(order), lambda: self._pass(order), self._check)]

    def stress(self, tracer, op_seconds: float) -> dict:
        share = tracer.inclusive_share(("lincode.min_distance", "lincode.min_weight_outside"),
                                       op_seconds)
        return {"distance_engine_share": share, "at_least": 0.8, "ok": share >= 0.8}

    def _pass(self, order):
        return {target: self.reproduce.run_target(target, budget=self.budget)[0]
                for target in order}

    def _check(self, reports) -> list:
        problems = []
        for target, pinned in self.pins["targets"].items():
            rep = reports[target]
            got = [[c.claim, c.status] for c in rep.checks]
            if got != pinned["statuses"]:
                problems.append(f"{target}: check-status vector differs from the pinned one")
            flagged = [json_normal([c.claim, c.expected, c.computed])
                       for c in rep.checks if c.status != "pass"]
            if flagged != pinned["not_passing"]:
                problems.append(f"{target}: fail/flagged rows differ from the pinned ones")
            if json_normal(rep.results) != pinned["results"]:
                problems.append(f"{target}: results {rep.results} != {pinned['results']}")
        return problems


# ---------------------------------------------------------------------------
# distance: exact minimum distance of random unstructured codes


# (p, t, k, n): rates 1/3, 1/2 and about 2/3 over F_2, F_3, F_4, F_5, F_8, F_9,
# each with 2^18 to 2^21 scalar classes of nonzero codewords.
DISTANCE_SHAPES = (
    (2, 1, 18, 54), (2, 1, 19, 38), (2, 1, 20, 30),
    (3, 1, 12, 36), (3, 1, 13, 26), (3, 1, 13, 20),
    (2, 2, 10, 30), (2, 2, 10, 20), (2, 2, 11, 17),
    (5, 1, 9, 27), (5, 1, 9, 18), (5, 1, 9, 14),
    (2, 3, 7, 21), (2, 3, 7, 14), (2, 3, 8, 12),
    (3, 2, 7, 21), (3, 2, 7, 14), (3, 2, 7, 11),
)
DISTANCE_VARIANTS = 8


def shape_id(shape) -> str:
    p, t, k, n = shape
    return f"q{p**t}-k{k}-n{n}"


def distance_matrix(shape, variant: int, attempt: int) -> np.ndarray:
    """The generator matrix of one pinned pool code (rows x columns = k x n)."""
    p, t, k, n = shape
    q = p**t
    stream = splitmix64(hash_words(shape_id(shape), variant, attempt))
    return np.array([[next(stream) % q for _ in range(n)] for _ in range(k)], dtype=np.int64)


def hash_words(*parts) -> int:
    """A 64-bit seed from the parts, independent of PYTHONHASHSEED."""
    acc = 0xCBF29CE484222325
    for byte in "/".join(map(str, parts)).encode():
        acc = ((acc ^ byte) * 0x100000001B3) & MASK64
    return acc


class Distance(Workload):
    """One operation is one code: RREF of a random generator matrix, then its
    exact minimum distance.  A cycle runs every shape once; the seed picks
    which pinned variant of each shape runs and the order."""

    name = "distance"

    def setup(self) -> None:
        import qckit
        from qckit import lincode

        self.lincode = lincode
        self.fields = {}
        for p, t, _, _ in DISTANCE_SHAPES:
            self.fields[(p, t)] = qckit.field_make(p, t)
        self._warm_fields(qckit, self.fields)
        self.pins = load_pins("distance")["shapes"]
        self.pool = {}
        for shape in DISTANCE_SHAPES:
            pin = self.pins[shape_id(shape)]
            for variant, entry in enumerate(pin["variants"]):
                self.pool[shape, variant] = (distance_matrix(shape, variant, entry["attempt"]),
                                             entry["d"])

    def cycle(self, index: int) -> list[Op]:
        rng = self._rng(index)
        picks = [(shape, rng.randrange(DISTANCE_VARIANTS)) for shape in DISTANCE_SHAPES]
        rng.shuffle(picks)
        return [self._op(shape, variant) for shape, variant in picks]

    def stress(self, tracer, op_seconds: float) -> dict:
        share = tracer.inclusive_share(("lincode.min_distance",), op_seconds)
        return {"min_distance_share": share, "at_least": 0.9, "ok": share >= 0.9}

    def _op(self, shape, variant) -> Op:
        p, t, k, n = shape
        rows, d = self.pool[shape, variant]
        field = self.fields[(p, t)]

        def run():
            code = self.lincode.code_from_rows(field, n, rows)
            return code, self.lincode.min_distance(code, mode="exact")

        def check(result):
            code, report = result
            problems = []
            if code.k != k:
                problems.append(f"rank {code.k} != {k}")
            if report.d_exact != d:
                problems.append(f"d = {report.d_exact}, pinned {d}")
            return problems

        return Op(f"{shape_id(shape)}/v{variant}", run, check)


# ---------------------------------------------------------------------------
# family: materialized recursive families


class Family(Workload):
    """One operation is `build_family` of one recipe with level u = 2
    materialized; a cycle runs the three recipes in seed order."""

    name = "family"
    FIELDS = ((2, 2), (3, 1), (5, 1), (2, 6), (3, 5), (5, 5))
    RECIPES = ("cor35", "example43", "example39")

    def setup(self) -> None:
        import qckit
        from qckit import qc

        self._warm_fields(qckit, self.FIELDS)
        self.qc = qc
        self.plans = self.make_plans()
        self.pins = load_pins("family")["recipes"]

    @classmethod
    def make_plans(cls) -> dict:
        import qckit
        from qckit import reproduce

        fx = reproduce.load_tables()
        return {name: getattr(cls, "_plan_" + name)(qckit, fx[name]) for name in cls.RECIPES}

    @staticmethod
    def _plan_cor35(qckit, fx):
        f3 = qckit.field_make(3, 1)
        decomp = qckit.decompose_ring(f3, 11, 5)
        slot = decomp.pair_slots[0][0]
        f243 = slot.cfield
        a = qckit.unembed(qckit.Felt(decomp.common_field, decomp.alpha_pow(slot.exponent)), f243).val
        cp = qckit.code_from_rows(f243, 5, [fx["cprime_first_row"],
                                            [f243.pow_(a, i) for i in range(1, 6)]])
        cs = qckit.code_from_rows(f3, 5, fx["cs_rows"])
        asn = qckit.ConstituentAssignment(
            (qckit.PairAssignment(cp, None, qckit.DistanceInfo(4, True), qckit.DistanceInfo(3, True)),),
            (qckit.SelfrecAssignment(cs, qckit.DistanceInfo(3, True)),))
        return qckit.FamilyPlan(f3, 11, 5, asn, u_max=2, kind="ESO", materialize_max=605)

    @staticmethod
    def _plan_example43(qckit, fx):
        f4 = qckit.field_make(2, 2)
        f64 = qckit.field_make(2, 6)
        cp = qckit.code_from_rows(f64, 3, [(f64.gen,) * 3])
        cs = qckit.code_from_rows(f4, 3, fx["cs_rows"])
        asn = qckit.ConstituentAssignment(
            (qckit.PairAssignment(cp, None, qckit.DistanceInfo(3, True), qckit.DistanceInfo(2, True)),),
            (qckit.SelfrecAssignment(cs, qckit.DistanceInfo(2, True)),))
        return qckit.FamilyPlan(f4, 7, 3, asn, u_max=2, kind="EDC", materialize_max=147)

    @staticmethod
    def _plan_example39(qckit, fx):
        f5 = qckit.field_make(5, 1)
        f3125 = qckit.field_make(5, 5)
        cp = qckit.grs_code(f3125, [0, 1, 2, 3, 4, 5], [1] * 6, 3)
        cs = qckit.code_from_rows(f5, 6, fx["cs_rows"])
        mds = qckit.DistanceInfo(4, True, "mds")
        asn = qckit.ConstituentAssignment(
            (qckit.PairAssignment(cp, None, mds, mds),),
            (qckit.SelfrecAssignment(cs, qckit.DistanceInfo(4, True)),))
        return qckit.FamilyPlan(f5, 11, 6, asn, u_max=2, kind="ESD", materialize_max=726)

    def order(self, index: int) -> list[str]:
        order = list(self.RECIPES)
        self._rng(index).shuffle(order)
        return order

    def cycle(self, index: int) -> list[Op]:
        return [self._op(name) for name in self.order(index)]

    def stress(self, tracer, op_seconds: float) -> dict:
        share = tracer.self_share(("lincode", "qc"), op_seconds)
        distance_calls = tracer.calls.get("lincode.min_distance", 0)
        return {"linalg_qc_share": share, "at_least": 0.9, "min_distance_calls": distance_calls,
                "ok": share >= 0.9 and distance_calls == 0}

    def _op(self, name) -> Op:
        plan = self.plans[name]
        pinned = self.pins[name]

        def check(levels):
            got = [[lv.n, lv.k, lv.d_lower, lv.rank_checked, lv.duality_checked] for lv in levels]
            problems = [] if got == pinned["levels"] else [f"levels {got} != pinned {pinned['levels']}"]
            return problems + independent_level_check(levels, pinned)

        return Op(name, lambda: self.qc.build_family(plan), check)


def independent_level_check(levels, pinned) -> list:
    """Recheck each materialized level with plain numpy, outside qckit: the
    generator has the identity at its pivots (so rank k), and over a prime
    field an ESO/ESD level has G G^T = 0 mod p."""
    problems = []
    for lv in levels:
        if lv.qc is None:
            continue
        gen, pivots = lv.qc.lin.gen, list(lv.qc.lin.pivots)
        if gen.shape != (lv.k, lv.n) or not np.array_equal(gen[:, pivots], np.eye(lv.k, dtype=gen.dtype)):
            problems.append(f"level {lv.u}: generator is not a rank-{lv.k} echelon form")
        p = lv.qc.field.p
        if lv.qc.field.t == 1 and pinned["kind"] in ("ESO", "ESD") and ((gen @ gen.T) % p).any():
            problems.append(f"level {lv.u}: G G^T != 0 mod {p}")
    return problems


WORKLOADS = {cls.name: cls for cls in (Reproduce, Distance, Family)}
