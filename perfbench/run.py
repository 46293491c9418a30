"""The homprod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of table1, sweep241, rounds241, witness241, or ``all``.  Run
it from the root of a source checkout: the program is imported from
``src/``.  A run repeats passes of a workload until ``--seconds`` of
passes are used up, and makes at least one (a ``rounds241`` pass alone
takes 20-35 s), or one of each kind when traced.  Each pass is a fresh worker process (see worker.py)
that builds its inputs from the seed, does a fixed amount of work, and
checks every output.  Set-up is measured in at least ten processes per
run, spread over the run.

Every time is calibrated (see calibrate.py): each worker runs a small
reference kernel from a timer signal and takes its time out of its own,
and each phase of a pass is rescaled by how much slower than nominal the
kernel ran during it.  On a shared host, neighbouring load slows
identical work up to twofold, in phases of seconds to minutes that can
cover a whole run; the calibrated times move far less.  ``wall_s`` and
``cpu_s`` are the sums of the pass's operation times, ``op_p50_ms``
their median; each is the median over the run's passes.  ``op_tail_ms``
is the highest percentile with at least ten samples beyond it of each
operation's median time over the passes, and ``setup_s`` the median over
the run's set-ups.  Lazily built tables still count, since every pass is
a fresh process and pays for them again.  Peak memory and the per-layer
metrics are medians over the passes; layer times are raw, not
calibrated.  The raw figures and the kernel times are kept in the run's
summary file.

With ``--trace 0`` the last line of output is a JSON object with every
end-to-end metric; with ``--trace 1`` passes alternate untraced and
traced, and it carries every per-layer metric instead, including the
tracing overhead.  A wrong output makes the command exit 1; a missing
program or a crashed pass makes it exit 2 without a result line.
Details of each run, its inputs and, when traced, its spans go to
``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import NOMINAL_S, SETUP_KERNEL, factor
from layers import MOVES
from stats import tail
from workloads import KERNELS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

MIN_SETUPS = 10
PASS_TIMEOUT_S = 170


class PassError(RuntimeError):
    """A worker process failed or produced no result."""


def one_pass(workload: str, seed: int, run_dir: str, index: int, traced: bool,
             setup_only: bool = False) -> dict:
    work = os.path.join(run_dir, f"pass{index}")
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("HOMPROD_THREADS", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", work, "--out", out]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    with open(os.path.join(work, "log.txt"), "w+", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd + ["--spawned", str(time.monotonic_ns())],
                                  env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise PassError(f"{workload} pass {index} exceeded {PASS_TIMEOUT_S} s") from exc
        log.seek(0)
        text = log.read()
    if proc.returncode != 0 or not os.path.exists(out):
        raise PassError(f"{workload} pass {index} exited {proc.returncode}:\n{text[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    if os.path.commonpath([result["homprod"], SRC]) != SRC:
        raise PassError(f"homprod was imported from {result['homprod']}, not {SRC}")
    result["traced"] = traced
    result["spans"] = out + ".spans.json"
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds`, then reduce them to metrics and a verdict."""
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        kinds = (False, True) if trace else (False,)
        passes: list[dict] = []
        durations: list[float] = []
        setups: list[dict] = []
        index = itertools.count()

        def set_up_once() -> None:
            setups.append(one_pass(workload, seed, run_dir, next(index), False, setup_only=True))

        while True:
            began = time.monotonic()
            passes.append(one_pass(workload, seed, run_dir, next(index),
                                   kinds[len(passes) % len(kinds)]))
            durations.append(time.monotonic() - began)
            setups.append(passes[-1])
            if len(passes) >= len(kinds) and sum(durations) + statistics.median(durations) > seconds:
                break
            # spread the set-up-only processes over the run, so that one slow
            # phase of the host cannot cover all of them
            while len(setups) < MIN_SETUPS * sum(durations) / seconds:
                set_up_once()
        while len(setups) < MIN_SETUPS:
            set_up_once()
        summary = summarise(workload, passes, setups)
        inputs = os.path.join(WORK, "results", f"{workload}-seed{seed}-inputs")
        shutil.copytree(os.path.join(run_dir, "pass0"), inputs, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("result.json*", "log.txt"))
        summary["inputs_dir"] = inputs
        if trace:
            spans = next(p["spans"] for p in passes if p["traced"])
            kept = os.path.join(WORK, "results", f"{workload}-seed{seed}.spans.json")
            shutil.move(spans, kept)
            summary["spans_file"] = kept
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    summary.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def calibrated(p: dict, kernel: str) -> dict:
    """A pass's operation figures, rescaled to the nominal host speed."""
    f = factor(p["ref_ops_s"], kernel)
    return {
        "wall_s": f * sum(p["latencies_s"]),
        "cpu_s": f * sum(p["cpu_times_s"]),
        "op_p50_ms": f * 1e3 * statistics.median(p["latencies_s"]),
        "latencies_ms": [f * 1e3 * t for t in p["latencies_s"]],
    }


def summarise(workload: str, passes: list[dict], setups: list[dict]) -> dict:
    kernel = KERNELS[workload]
    plain = [calibrated(p, kernel) for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if workload == "table1":
        # the canonical JSON must be byte-identical across the repeated runs
        odd = [p for p in passes if p["digest"] != passes[0]["digest"]]
        failed += len(odd)
        failures += [f"table1 JSON differs between passes ({len(odd)} of {len(passes)})"] * bool(odd)

    end_to_end = {"setup_s": statistics.median(p["setup_s"] * factor(p["ref_setup_s"], SETUP_KERNEL)
                                                for p in setups)}
    for name in ("wall_s", "cpu_s"):
        end_to_end[name] = statistics.median(c[name] for c in plain)
    end_to_end["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes if not p["traced"])
    end_to_end["op_p50_ms"] = statistics.median(c["op_p50_ms"] for c in plain)
    # the tail of each operation's median over the passes: a burst of
    # host load hits an operation in one pass, not in most of them
    percentile, end_to_end["op_tail_ms"] = tail(
        [statistics.median(times) for times in zip(*(c["latencies_ms"] for c in plain))])
    per_layer = {}
    if traced:
        per_layer = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        traced_wall = statistics.median(calibrated(p, kernel)["wall_s"] for p in traced)
        per_layer["trace_overhead_s"] = traced_wall - end_to_end["wall_s"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "pass_wall_s": [c["wall_s"] for c in plain],
        "raw_pass_wall_s": [sum(p["latencies_s"]) for p in passes if not p["traced"]],
        "pass_kernel_s": [statistics.median(p["ref_ops_s"]) for p in passes if not p["traced"]],
        "raw_setup_s": [p["setup_s"] for p in setups],
        "setup_kernel_s": [statistics.median(p["ref_setup_s"]) for p in setups],
        "tail_percentile": percentile,
        "ops_per_pass": len(passes[0]["latencies_s"]),
        "passes": len(plain),
        "traced_passes": len(traced),
        "machine": passes[0]["machine"],
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def report(s: dict, units: dict[str, str]) -> None:
    w = s["workload"]
    m = s["machine"]
    print(f"[{w}] seed {s['seed']}: {s['passes']} passes of {s['ops_per_pass']} ops"
          f" (+{s['traced_passes']} traced), {len(s['raw_setup_s'])} set-ups;"
          f" {s['failed']} of {s['attempted']} ops failed"
          f" (failed_ratio {s['failed'] / s['attempted']:.4g})")
    print(f"[{w}] machine: {m['nproc']} cpus, {m['cpu_model']}, python {m['python']},"
          f" numpy {m['numpy']}, {m['blas']}, blas threads {m['blas_threads']}")
    for f in s["failures"]:
        print(f"[{w}] FAILED: {f}")
    if s["trace"]:
        for name, value in s["per_layer"].items():
            print(f"[{w}] {name} = {value:.6g} {units[name]}   (should move: {MOVES[name]})")
        print(f"[{w}] spans: {s['spans_file']}")
        return
    kernel = KERNELS[w]
    slowdown = statistics.median(s["pass_kernel_s"]) / NOMINAL_S[kernel]
    print(f"[{w}] calibrated by the {kernel} kernel, which ran {slowdown:.3g}x its nominal time;"
          f" raw wall_s (median over passes) = {statistics.median(s['raw_pass_wall_s']):.6g} s")
    for name, value in s["end_to_end"].items():
        note = ""
        if name == "op_tail_ms":
            note = f"   ({s['tail_percentile']} of {s['ops_per_pass']} ops, each at its median over passes)"
        print(f"[{w}] {name} = {value:.6g} {units[name]}{note}")


def metrics_of(s: dict, units: dict[str, str]) -> dict:
    values = s["per_layer"] if s["trace"] else s["end_to_end"]
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "homprod", "__init__.py")):
        print(f"no homprod sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summaries.append(measure(name, args.seed, args.seconds, bool(args.trace)))
            report(summaries[-1], units)
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        metrics = metrics_of(summaries[0], units)
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in metrics_of(s, units).items()}
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
