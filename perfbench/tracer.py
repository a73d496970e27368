"""Span recorder that measures qckit's layers from outside the package.

`Tracer.install()` replaces every public function of every loaded qckit
module with a wrapper, at every place that binds it: the defining module,
each module that imported it by name, the package namespace, and values of
module-level dicts (such as the reproduce target table).  `GF.tables` is
wrapped on the class.  Each wrapped call records a span (id, parent id,
layer, start, end) in memory; `uninstall()` restores the original bindings.

A layer's self time is the summed duration of its spans minus the time
covered by their child spans.  Its inclusive time sums only outermost spans,
so recursion is not counted twice.  Layers listed in `PEAK_LAYERS` also get
a tracemalloc peak when the tracer is made with `peaks=True`: the most
memory allocated during the span and still held at one time.  tracemalloc
runs only while such a span is open, and it slows pure-Python code far more
than numpy code, so the benchmark takes peaks in a pass of their own and
self times in a pass without them.  Nested peaks are propagated to open
ancestors because `tracemalloc.reset_peak()` is global.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

PEAK_LAYERS = frozenset({"lincode.duality_class", "qc.assemble_qc", "qc.build_family"})


def layer_name(fn) -> str:
    """`<module>.<function>` with the package prefix and any leading
    underscore of the module dropped; reproduce runners are named by target."""
    module = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
    name = fn.__name__
    if module == "reproduce" and name.startswith("run_"):
        name = name[len("run_"):]
    return f"{module}.{name}"


def _qckit_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "qckit" or key.startswith("qckit."))]


def _public_functions(modules):
    """Functions defined in qckit under a public name, keyed by identity."""
    found = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__.startswith("qckit")):
                found[id(obj)] = obj
    return found


class _Frame:
    __slots__ = ("sid", "layer", "start", "child", "outer", "start_mem", "max_mem")

    def __init__(self, sid, layer, outer):
        self.sid = sid
        self.layer = layer
        self.start = 0.0
        self.child = 0.0
        self.outer = outer
        self.start_mem = 0
        self.max_mem = 0


class Tracer:
    """Wraps qckit's public functions and aggregates their spans."""

    def __init__(self, peaks: bool = False):
        self.peaks = peaks
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._peak_stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from qckit import gf

        modules = _qckit_modules()
        wrappers = {key: self._wrap(fn, layer_name(fn))
                    for key, fn in _public_functions(modules).items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._rebind(mod, attr, obj, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]
                            self._restore.append((obj.__setitem__, key, val))
        self._rebind(gf.GF, "tables", gf.GF.tables, self._wrap(gf.GF.tables, "gf.tables"))

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((functools.partial(setattr, owner), attr, original))

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def _wrap(self, fn, layer: str):
        post = _POST_HOOKS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(tracer.counters, args, result)
            return result

        return traced

    # -- spans ------------------------------------------------------------------

    def _enter(self, layer: str) -> _Frame:
        frame = _Frame(self._next_id, layer, self._depth[layer] == 0)
        self._next_id += 1
        self._depth[layer] += 1
        if self.peaks and layer in PEAK_LAYERS:
            if not self._peak_stack:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            for open_frame in self._peak_stack:
                open_frame.max_mem = max(open_frame.max_mem, peak)
            tracemalloc.reset_peak()
            frame.start_mem = frame.max_mem = current
            self._peak_stack.append(frame)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        layer = frame.layer
        duration = end - frame.start
        self.self_s[layer] += duration - frame.child
        if frame.outer:
            self.incl_s[layer] += duration
        self._depth[layer] -= 1
        self.calls[layer] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        if self._peak_stack and self._peak_stack[-1] is frame:
            _, peak = tracemalloc.get_traced_memory()
            self._peak_stack.pop()
            frame.max_mem = max(frame.max_mem, peak)
            for open_frame in self._peak_stack:
                open_frame.max_mem = max(open_frame.max_mem, frame.max_mem)
            self.peak_mb[layer] = max(self.peak_mb[layer],
                                      (frame.max_mem - frame.start_mem) / 1e6)
            if not self._peak_stack:
                tracemalloc.stop()
        self.spans.append((frame.sid, parent.sid if parent is not None else -1,
                           layer, frame.start, end))

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, ops: int, op_seconds: float, untraced_op_seconds: float,
                      peak_mb: dict) -> dict:
        """The per-layer metrics, normalised per operation where they sum;
        `peak_mb` comes from the peaks pass."""
        s = {layer: self.self_s.get(layer, 0.0) / ops for layer in _SELF_TIME_LAYERS}
        calls = {layer: self.calls.get(layer, 0) / ops for layer in _CALL_LAYERS}
        out = {f"{layer}.s": (v, "s/op") for layer, v in s.items()}
        out.update({f"{layer}.calls": (v, "calls/op") for layer, v in calls.items()})
        out.update({f"{layer}.peak_mb": (peak_mb.get(layer, 0.0), "MB")
                    for layer in sorted(PEAK_LAYERS)})
        c = self.counters
        md_time = self.incl_s.get("lincode.min_distance", 0.0)
        mwo_time = self.incl_s.get("lincode.min_weight_outside", 0.0)
        out["lincode.min_distance.codewords"] = (c["min_distance.codewords"] / ops, "codewords/op")
        out["lincode.min_distance.codewords_per_s"] = (
            c["min_distance.codewords"] / md_time if md_time else 0.0, "1/s")
        out["lincode.min_distance.visit_ratio"] = (
            c["min_distance.codewords"] / c["min_distance.classes"]
            if c["min_distance.classes"] else 0.0, "ratio")
        out["lincode.min_weight_outside.codewords"] = (
            c["min_weight_outside.codewords"] / ops, "codewords/op")
        out["lincode.min_weight_outside.codewords_per_s"] = (
            c["min_weight_outside.codewords"] / mwo_time if mwo_time else 0.0, "1/s")
        out["gobound.go_bound.dtable_entries"] = (c["go_bound.dtable_entries"] / ops, "entries/op")
        out["trace.overhead_share"] = (
            op_seconds / untraced_op_seconds - 1.0 if untraced_op_seconds else 0.0, "ratio")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}

    def inclusive_share(self, layers, op_seconds_total: float) -> float:
        """Share of operation time spent inside the named layers' outermost spans."""
        return sum(self.incl_s.get(layer, 0.0) for layer in layers) / op_seconds_total

    def self_share(self, modules, op_seconds_total: float) -> float:
        """Share of operation time that is self time of layers in these modules."""
        return sum(v for layer, v in self.self_s.items()
                   if layer.split(".", 1)[0] in modules) / op_seconds_total


# Layers whose self time, and call count, the benchmark reports.
_SELF_TIME_LAYERS = (
    "gf.field_make", "gf.tables",
    "poly.factor_xm1", "poly.three_factor_scan",
    "lincode.code_from_rows", "lincode.dual_euclidean", "lincode.subspace_leq",
    "lincode.duality_class", "lincode.concat_copies",
    "lincode.min_distance", "lincode.min_weight_outside", "kernels.gray_min_weight",
    "qc.decompose_ring", "qc.assemble_qc", "qc.qc_duality_class",
    "qc.galois_closure_theorem_check", "qc.build_family",
    "gobound.go_bound",
    "quantum.from_dual_containing", "quantum.transform",
    "reproduce.example41", "reproduce.example42", "reproduce.example43",
    "reproduce.cor35", "reproduce.example39", "reproduce.tables",
)
_CALL_LAYERS = (
    "gf.field_make", "gf.tables", "poly.factor_xm1", "lincode.code_from_rows",
    "lincode.min_distance", "kernels.gray_min_weight",
)


def _count_min_distance(counters, args, report):
    code = args[0]
    q = code.field.order
    counters["min_distance.codewords"] += report.enumerated
    counters["min_distance.classes"] += (q**code.k - 1) // (q - 1)


def _count_min_weight_outside(counters, args, result):
    counters["min_weight_outside.codewords"] += result[1]


def _count_go_bound(counters, args, report):
    counters["go_bound.dtable_entries"] += len(report.d_table)


_POST_HOOKS = {
    "lincode.min_distance": _count_min_distance,
    "lincode.min_weight_outside": _count_min_weight_outside,
    "gobound.go_bound": _count_go_bound,
}
