"""Spans around the homprod layers, and the per-layer metrics derived from them.

The library is never edited.  `install` replaces each public function of
the traced modules with a wrapper that records one span per call, both
where the function is defined and in every module that imported it by
name (`css.betti_number`, `decoder.pauli_min_weight`, ...).  A few
methods are wrapped on their classes.  Spans stay in memory as tuples
and are written out when the worker ends.

Self time is a span's duration minus the part of it that child spans
cover; time spent in untraced code is charged to the nearest traced
ancestor.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("gf2", "chain", "product", "css", "decoder", "soundness", "cli")

# Leaf helpers that only convert, allocate or count.  They run inside
# nearly every other call, so wrapping them would multiply the span count
# and the tracing overhead; their time is charged to their callers.
UNTRACED = frozenset(
    {
        "gf2.as_bin",
        "gf2.zeros",
        "gf2.identity",
        "gf2.weight",
        "gf2.reshape_vector",
        "gf2.flatten_matrix",
        "gf2.col_support",
        "gf2.row_support",
    }
)

METHODS = (
    ("gf2", "Gf2Solver", "__init__"),
    ("gf2", "Gf2Solver", "solve"),
    ("css", "CssCode", "__init__"),
    ("chain", "ChainComplex", "__init__"),
)

# span tuple fields
SID, NAME, KIND, START, END, PARENT, COUNT, ERROR = range(8)
CALL, RESUME = 0, 1


def _mat_mul_bytes(args, kwargs, result) -> int:
    """float64 operand and result bytes, from the shapes (computed, not measured)."""
    (ra, ca), (rb, cb) = np.shape(args[0]), np.shape(args[1])
    if 0 in (ra, ca, cb):
        return 0
    return 8 * (ra * ca + rb * cb + ra * cb)


COUNTERS = {
    "gf2.mat_mul": _mat_mul_bytes,
    "gf2.min_weight_solution": lambda a, k, r: 0 if r is None else 1,
    "gf2.all_solutions_up_to_weight": lambda a, k, r: len(r),
    "css.pauli_min_weight": lambda a, k, r: 0 if r is None else 1,
    "soundness.partial_decode": lambda a, k, r: sum(r.loop_counters),
    "soundness.double_product_preimage": lambda a, k, r: int(r.used_fallback),
}


class Recorder:
    """Spans of one single-threaded process, in the order they closed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next = 1

    def open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, kind, start, end, count, error="") -> None:
        self._stack.pop()
        self.spans.append((sid, name, kind, start, end, parent, count, error))

    def origin(self, exc: BaseException) -> str:
        """Exception type name for the innermost span it passed, else ""."""
        if getattr(exc, "_perfbench_seen", False):
            return ""
        exc._perfbench_seen = True
        return type(exc).__name__


def _wrap_function(rec: Recorder, name: str, fn, counter):
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid, parent = rec.open()
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(sid, parent, name, CALL, start, clock(), 0, rec.origin(exc))
            raise
        end = clock()
        count = counter(args, kwargs, result) if counter else 0
        rec.close(sid, parent, name, CALL, start, end, count)
        return result

    return traced


def _resumes(rec: Recorder, name: str, gen):
    """Re-yield gen, recording one span per resume; count 1 per item."""
    clock = time.perf_counter_ns
    try:
        while True:
            sid, parent = rec.open()
            start = clock()
            try:
                item = next(gen)
            except StopIteration:
                rec.close(sid, parent, name, RESUME, start, clock(), 0)
                return
            except BaseException as exc:
                rec.close(sid, parent, name, RESUME, start, clock(), 0, rec.origin(exc))
                raise
            rec.close(sid, parent, name, RESUME, start, clock(), 1)
            yield item
    finally:
        gen.close()


def _wrap_generator(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid, parent = rec.open()
        now = time.perf_counter_ns()
        rec.close(sid, parent, name, CALL, now, now, 0)
        return _resumes(rec, name, fn(*args, **kwargs))

    return traced


def install(rec: Recorder) -> list[str]:
    """Wrap the traced layers in this process; returns the wrapped names."""
    modules = {short: importlib.import_module(f"homprod.{short}") for short in LAYERS}
    wrappers: dict[int, tuple] = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or name in UNTRACED
            ):
                continue
            if inspect.isgeneratorfunction(obj):
                wrapper = _wrap_generator(rec, name, obj)
            else:
                wrapper = _wrap_function(rec, name, obj, COUNTERS.get(name))
            wrappers[id(obj)] = (obj, wrapper)
    names = []
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                names.append(f"{short}.{attr}")
    for short, cls_name, meth in METHODS:
        cls = getattr(modules[short], cls_name)
        name = f"{short}.{cls_name}.{meth}"
        setattr(cls, meth, _wrap_function(rec, name, vars(cls)[meth], None))
        names.append(name)
    return sorted(names)


# -- derived metrics -------------------------------------------------------------


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    return {
        s[SID]: s[END] - s[START] - _covered(children.get(s[SID], []), s[START], s[END])
        for s in spans
    }


# layer metric -> the end-to-end metric and workload it should move;
# units and directions are in BENCHMARK.json
MOVES = {
    "gf2.mat_mul.calls": "table1 wall_s, peak_rss_mb",
    "gf2.mat_mul.self_s": "table1 wall_s",
    "gf2.mat_mul.bytes_computed": "table1 wall_s, peak_rss_mb",
    "chain.validate.calls": "table1 wall_s",
    "chain.validate.self_s": "table1 wall_s",
    "chain.validate.per_complex": "table1 wall_s",
    "css.code_init.self_s": "table1 wall_s",
    "gf2.search.calls": "rounds241 wall_s",
    "gf2.search.self_s": "rounds241 wall_s, peak_rss_mb",
    "gf2.search.vectors_returned": "rounds241 wall_s, peak_rss_mb",
    "css.pauli_min_weight.calls": "rounds241 wall_s",
    "css.pauli_min_weight.self_s": "rounds241 wall_s",
    "css.coset_pairs_joined": "rounds241 wall_s",
    "css.coset_useful_ratio": "rounds241 wall_s",
    "decoder.repair.calls": "sweep241 op_p50_ms",
    "decoder.repair.self_s": "sweep241 op_p50_ms, op_tail_ms",
    "decoder.qubit_decode.calls": "sweep241 op_p50_ms",
    "decoder.qubit_decode.self_s": "sweep241 op_p50_ms, op_tail_ms",
    "decoder.decode.calls": "sweep241 op_p50_ms",
    "decoder.decode.self_s": "sweep241 op_p50_ms, op_tail_ms",
    "decoder.budget_exhausted": "sweep241 op_tail_ms",
    "gf2.mat_vec.calls": "sweep241 op_p50_ms",
    "gf2.mat_vec.self_s": "sweep241 op_p50_ms",
    "gf2.solve.calls": "sweep241 op_p50_ms",
    "gf2.solve.self_s": "sweep241 op_p50_ms",
    "soundness.double_preimage.calls": "witness241 op_p50_ms",
    "soundness.double_preimage.self_s": "witness241 op_p50_ms, wall_s",
    "soundness.partial_decode.calls": "witness241 op_p50_ms",
    "soundness.partial_decode.self_s": "witness241 op_p50_ms, wall_s",
    "soundness.partial_decode.transforms": "witness241 op_p50_ms",
    "soundness.single_preimage.calls": "witness241 op_p50_ms",
    "soundness.single_preimage.self_s": "witness241 op_p50_ms, wall_s",
    "soundness.fallback_ratio": "witness241 op_p50_ms",
    "gf2.solver_builds": "witness241 and sweep241 wall_s",
    "product.build.self_s": "table1 wall_s",
    "product.witness.self_s": "table1 wall_s",
    "cli.self_s": "rounds241 wall_s",
    "gf2.pcm_io.self_s": "rounds241 wall_s",
    "chain.distance.calls": "rounds241 wall_s",
    "chain.distance.self_s": "rounds241 wall_s",
    "trace_overhead_s": "none: traced minus untraced wall_s",
}

SEARCH = ("gf2.min_weight_solution", "gf2.all_solutions_up_to_weight", "gf2.kernel_vectors_by_weight")
PCM_IO = ("gf2.read_pcm", "gf2.write_pcm", "gf2.parse_pcm", "gf2.format_pcm")
DISTANCE = ("chain.homological_distance", "chain.cohomological_distance")
BUILD = ("product.minimal_complex", "product.single_product", "product.double_product")


def layer_metrics(spans) -> dict[str, float]:
    """Every MOVES entry except trace_overhead_s, from one process's spans."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    children: dict[int, list[tuple]] = defaultdict(list)
    errors: dict[str, int] = defaultdict(int)
    for s in spans:
        name = s[NAME]
        calls[name] += s[KIND] == CALL
        self_ns[name] += selfs[s[SID]]
        counts[name] += s[COUNT]
        children[s[PARENT]].append(s)
        if s[ERROR]:
            errors[s[ERROR]] += 1

    def c(*names):
        return sum(calls[n] for n in names)

    def t(*names):
        return sum(self_ns[n] for n in names) / 1e9

    def n(*names):
        return sum(counts[x] for x in names)

    pairs = useful = 0
    for s in spans:
        if s[NAME] != "css.pauli_min_weight":
            continue
        sides = [k[COUNT] for k in children[s[SID]] if k[NAME] == "gf2.all_solutions_up_to_weight"]
        if len(sides) == 2:
            pairs += sides[0] * sides[1]
            useful += s[COUNT]
    complexes = c("chain.ChainComplex.__init__")
    doubles = c("soundness.double_product_preimage")
    return {
        "gf2.mat_mul.calls": c("gf2.mat_mul"),
        "gf2.mat_mul.self_s": t("gf2.mat_mul"),
        "gf2.mat_mul.bytes_computed": n("gf2.mat_mul"),
        "chain.validate.calls": c("chain.validate"),
        "chain.validate.self_s": t("chain.validate"),
        "chain.validate.per_complex": c("chain.validate") / complexes if complexes else 0.0,
        "css.code_init.self_s": t("css.CssCode.__init__"),
        "gf2.search.calls": c(*SEARCH),
        "gf2.search.self_s": t(*SEARCH),
        "gf2.search.vectors_returned": n(*SEARCH),
        "css.pauli_min_weight.calls": c("css.pauli_min_weight"),
        "css.pauli_min_weight.self_s": t("css.pauli_min_weight"),
        "css.coset_pairs_joined": pairs,
        "css.coset_useful_ratio": useful / pairs if pairs else 0.0,
        "decoder.repair.calls": c("decoder.repair_syndrome"),
        "decoder.repair.self_s": t("decoder.repair_syndrome"),
        "decoder.qubit_decode.calls": c("decoder.qubit_decode"),
        "decoder.qubit_decode.self_s": t("decoder.qubit_decode"),
        "decoder.decode.calls": c("decoder.single_shot_decode"),
        "decoder.decode.self_s": t("decoder.single_shot_decode"),
        "decoder.budget_exhausted": errors["BudgetExhausted"],
        "gf2.mat_vec.calls": c("gf2.mat_vec"),
        "gf2.mat_vec.self_s": t("gf2.mat_vec"),
        "gf2.solve.calls": c("gf2.Gf2Solver.solve"),
        "gf2.solve.self_s": t("gf2.Gf2Solver.solve"),
        "soundness.double_preimage.calls": doubles,
        "soundness.double_preimage.self_s": t("soundness.double_product_preimage"),
        "soundness.partial_decode.calls": c("soundness.partial_decode"),
        "soundness.partial_decode.self_s": t("soundness.partial_decode"),
        "soundness.partial_decode.transforms": n("soundness.partial_decode"),
        "soundness.single_preimage.calls": c("soundness.single_product_preimage"),
        "soundness.single_preimage.self_s": t("soundness.single_product_preimage"),
        "soundness.fallback_ratio": n("soundness.double_product_preimage") / doubles if doubles else 0.0,
        "gf2.solver_builds": c("gf2.Gf2Solver.__init__"),
        "product.build.self_s": t(*BUILD),
        "product.witness.self_s": t("product.double_distance_witness"),
        "cli.self_s": sum(v for k, v in self_ns.items() if k.startswith("cli.")) / 1e9,
        "gf2.pcm_io.self_s": t(*PCM_IO),
        "chain.distance.calls": c(*DISTANCE),
        "chain.distance.self_s": t(*DISTANCE),
    }
