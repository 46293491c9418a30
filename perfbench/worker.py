"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --spawned NS \
        --work DIR --out FILE [--trace] [--setup-only]

``--spawned`` is the parent's CLOCK_MONOTONIC reading (ns) just before it
started this process; set-up time runs from there to the first timed
operation.  Each operation is timed on its own, in wall and in process
CPU time.  A reference kernel of calibrate.py runs from a timer signal
throughout (the set-up kernel, then the workload's own); its time is
taken out of set-up and of every operation, and its samples go into
the result, split into set-up and timed phase.  The result, one JSON
object, goes to ``--out``.  With ``--trace`` the spans go to
``<out>.spans.json`` and the derived layer metrics into the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

import calibrate
import workloads


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    model = "unknown"
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run(args: argparse.Namespace, sampler: calibrate.Sampler) -> int:
    import homprod

    setup, make_ops, check = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, args.work)
    ops = make_ops(state)
    setup_s = (time.monotonic_ns() - args.spawned) / 1e9 - sampler.spent
    for _ in range(calibrate.EXTRA_SAMPLES):
        sampler.sample()
    result = {
        "setup_s": setup_s,
        "ref_setup_s": list(sampler.samples),
        "homprod": os.path.dirname(homprod.__file__),
    }
    if not args.setup_only:
        sampler.use(workloads.KERNELS[args.workload])
        recorder = None
        if args.trace:
            import layers

            recorder = layers.Recorder()
            layers.install(recorder)
        wall, cpu = time.perf_counter, time.process_time
        latencies, cpu_times, outputs = [], [], []
        first_sample = len(sampler.samples)
        for op in ops:
            h0, hc0 = sampler.spent, sampler.spent_cpu
            w0, c0 = wall(), cpu()
            outputs.append(op())
            cpu_times.append(cpu() - c0 - (sampler.spent_cpu - hc0))
            latencies.append(wall() - w0 - (sampler.spent - h0))
        ref_ops = sampler.samples[first_sample:]
        failures = check(state, outputs)
        result.update(
            ref_ops_s=ref_ops,
            latencies_s=latencies,
            cpu_times_s=cpu_times,
            failed=len(failures),
            failures=failures[:5],
            machine=machine(),
        )
        if args.workload == "table1":
            result["digest"] = workloads.table1_digest(state)
        if recorder is not None:
            spans = recorder.spans
            result["layers"] = layers.layer_metrics(spans)
            with open(args.out + ".spans.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "kind", "start_ns", "end_ns", "parent", "count", "error"],
                           "spans": spans}, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sampler = calibrate.Sampler(calibrate.SETUP_KERNEL)
    sampler.start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


if __name__ == "__main__":
    sys.exit(main())
