"""Self-test of the benchmark's own arithmetic and wiring.

    python3 perfbench/selftest.py

Checks self time and the layer metrics on a synthetic span tree, the
percentile, spread and calibration arithmetic, the reference sampler, and the
tracing wrappers on a few real homprod calls.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import os
import sys
import time

import calibrate
import layers
import run
import stats
from layers import CALL, RESUME

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def expect(got, want, what: str) -> None:
    if got != want:
        raise SystemExit(f"selftest FAILED: {what}: got {got!r}, want {want!r}")


def span(sid, name, start, end, parent=0, count=0, kind=CALL, error=""):
    return (sid, name, kind, start, end, parent, count, error)


def test_self_time() -> None:
    # root [0, 100] with children A [10, 40], B [50, 60], D [55, 70] overlapping
    # B, and E [90, 130] running past it; A has child C [15, 25].  Root's
    # children cover [10, 40], [50, 70] and [90, 100], so root keeps 40.
    spans = [
        span(1, "root", 0, 100),
        span(2, "A", 10, 40, parent=1),
        span(3, "C", 15, 25, parent=2),
        span(4, "B", 50, 60, parent=1),
        span(5, "D", 55, 70, parent=1),
        span(6, "E", 90, 130, parent=1),
    ]
    expect(layers.self_times(spans), {1: 40, 2: 20, 3: 10, 4: 10, 5: 15, 6: 40}, "self times")


def test_layer_metrics() -> None:
    ms = 1_000_000
    spans = [
        span(1, "cli.main", 0, 100 * ms),
        span(2, "chain.ChainComplex.__init__", 1 * ms, 2 * ms, parent=1),
        span(3, "chain.ChainComplex.__init__", 2 * ms, 3 * ms, parent=1),
        span(4, "chain.validate", 3 * ms, 13 * ms, parent=1),
        span(5, "gf2.mat_mul", 4 * ms, 12 * ms, parent=4, count=800),
        span(6, "chain.validate", 13 * ms, 14 * ms, parent=1),
        span(7, "chain.validate", 14 * ms, 15 * ms, parent=1),
        span(8, "css.pauli_min_weight", 20 * ms, 40 * ms, parent=1, count=1),
        span(9, "gf2.all_solutions_up_to_weight", 21 * ms, 25 * ms, parent=8, count=3),
        span(10, "gf2.all_solutions_up_to_weight", 25 * ms, 29 * ms, parent=8, count=4),
        span(11, "gf2.kernel_vectors_by_weight", 50 * ms, 50 * ms, parent=1),
        span(12, "gf2.kernel_vectors_by_weight", 51 * ms, 53 * ms, parent=1, count=1, kind=RESUME),
        span(13, "gf2.kernel_vectors_by_weight", 54 * ms, 55 * ms, parent=1, kind=RESUME),
        span(14, "decoder.repair_syndrome", 60 * ms, 61 * ms, parent=1, error="BudgetExhausted"),
    ]
    m = layers.layer_metrics(spans)
    expect(set(m) | {"trace_overhead_s"}, set(layers.MOVES), "layer metric names")
    expect(m["chain.validate.calls"], 3, "validate calls")
    expect(m["chain.validate.per_complex"], 1.5, "validate calls per complex")
    expect(round(m["chain.validate.self_s"], 9), 0.004, "validate self time")
    expect(m["gf2.mat_mul.bytes_computed"], 800, "mat_mul bytes")
    expect(m["css.coset_pairs_joined"], 12, "coset pairs joined")
    expect(m["css.coset_useful_ratio"], 1 / 12, "coset useful ratio")
    expect(round(m["css.pauli_min_weight.self_s"], 9), 0.012, "pauli_min_weight self time")
    expect(m["gf2.search.calls"], 3, "search calls: two lists, one generator")
    expect(m["gf2.search.vectors_returned"], 8, "search vectors returned")
    expect(round(m["gf2.search.self_s"], 9), 0.011, "search self time, resumes included")
    expect(m["decoder.budget_exhausted"], 1, "budget exhausted")
    # children of cli.main cover [1, 15], [20, 40], [51, 53], [54, 55] and [60, 61] ms
    expect(round(m["cli.self_s"], 9), 0.062, "cli self time")


def test_percentiles() -> None:
    expect(stats.tail([float(i) for i in range(1, 2001)]), ("p99", 1980.0), "p99 of 2000")
    expect(stats.tail([float(i) for i in range(1, 1001)]), ("p99", 990.0), "p99 of 1000")
    expect(stats.tail([float(i) for i in range(1, 1000)]), ("p90", 900.0), "p90 of 999")
    expect(stats.tail([float(i) for i in range(1, 10001)]), ("p99.9", 9990.0), "p99.9 of 10000")
    expect(stats.tail([float(i) for i in range(20, 0, -1)]), ("p50", 10.0), "p50 of 20, unsorted")
    expect(stats.tail([float(i) for i in range(1, 20)]), ("max", 19.0), "too few samples")
    expect(stats.spread([float(i) for i in range(1, 11)]), 1.0, "quartile spread of 1..10")


def test_calibration() -> None:
    nominal = calibrate.NOMINAL_S["gf2"]
    # the gf2 kernel ran at half speed (median of its samples), so times are halved
    ops = [0.002 * (i + 1) for i in range(20)]
    p = {"ref_ops_s": [nominal, 2 * nominal, 2 * nominal, 3 * nominal, 2 * nominal],
         "latencies_s": ops, "cpu_times_s": [t / 2 for t in ops]}
    c = run.calibrated(p, "gf2")
    expect(round(c["wall_s"], 9), round(sum(ops) / 2, 9), "calibrated wall")
    expect(round(c["cpu_s"], 9), round(sum(ops) / 4, 9), "calibrated cpu")
    expect(round(c["op_p50_ms"], 9), 10.5, "calibrated median op")
    expect([round(t, 9) for t in c["latencies_ms"][:2]], [1.0, 2.0], "calibrated latencies")
    # the sampler takes its own time out of the interval it interrupts
    sampler = calibrate.Sampler("gf2")
    sampler.start()
    t0 = time.perf_counter()
    while len(sampler.samples) < 3:
        sum(range(1000))
    sampler.stop()
    expect(sampler.spent < time.perf_counter() - t0, True, "sampler time within the interval")
    expect(all(0 < s < sampler.spent for s in sampler.samples), True, "kernel samples positive")


def test_wrappers() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from homprod import chain, css, decoder, gf2

    rec = layers.Recorder()
    names = layers.install(rec)
    expect(decoder.pauli_min_weight is css.pauli_min_weight, True, "by-name import site wrapped")
    expect(css.betti_number is chain.betti_number, True, "chain name imported into css wrapped")
    expect("decoder.pauli_min_weight" in names and "gf2.as_bin" not in names, True, "wrapped names")
    h = gf2.as_bin([[1, 1, 0], [0, 1, 1]])
    gf2.mat_mul(h, h.T)
    expect(sum(1 for _ in gf2.kernel_vectors_by_weight(h, 3)), 1, "kernel of rep-3")
    gf2.Gf2Solver(h).solve([1, 0])
    got = [(s[layers.NAME], s[layers.KIND], s[layers.COUNT]) for s in rec.spans]
    expect(got[0], ("gf2.mat_mul", CALL, 8 * (6 + 6 + 4)), "mat_mul span and bytes")
    expect(
        [g for g in got if g[0] == "gf2.kernel_vectors_by_weight"],
        [("gf2.kernel_vectors_by_weight", CALL, 0)]
        + [("gf2.kernel_vectors_by_weight", RESUME, 1), ("gf2.kernel_vectors_by_weight", RESUME, 0)],
        "generator spans",
    )
    expect([g[0] for g in got[-2:]], ["gf2.Gf2Solver.__init__", "gf2.Gf2Solver.solve"], "method spans")
    sids = {s[layers.SID] for s in rec.spans} | {0}
    expect(all(s[layers.PARENT] in sids for s in rec.spans), True, "every parent recorded")


def main() -> int:
    for test in (test_self_time, test_layer_metrics, test_percentiles, test_calibration, test_wrappers):
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
