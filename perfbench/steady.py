"""Steadiness check: run-to-run spread of every end-to-end metric against its bound.

    python3 perfbench/steady.py --workload NAME|all [--save FILE] [--compare FILE]

Runs the benchmark command from BENCHMARK.json once for each of the seeds
1 to 10, each time for its ``run_seconds``, and prints for every
end-to-end metric the median, the quartiles and the spread (third minus
first quartile, as a share of the median).  A spread must stay within
the metric's bound and should stay below a third of it.
``--save`` keeps the values; ``--compare`` reads values saved earlier
and checks that no median got worse by more than its bound.  Exits 1
when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong output ({result['failed']} failed)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
                  flush=True)
        values[workload] = {name: [r[name] for r in runs] for name in metrics}
    ok = True
    print(f"{'workload':<11} {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for workload, by_metric in values.items():
        for name, vals in by_metric.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share, bound = spread(vals), metrics[name]["bound"]
            if share <= bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"{workload:<11} {name:<12} {statistics.median(vals):>11.5g} {q1:>11.5g} {q3:>11.5g}"
                  f" {share:>7.3f} {bound:>6.3f}  {verdict}")
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
        print("median drift against", args.compare)
        for workload, by_metric in values.items():
            for name, vals in by_metric.items():
                old = earlier.get(workload, {}).get(name)
                if not old:
                    continue
                drift = worse_by(metrics[name], statistics.median(old), statistics.median(vals))
                verdict = "ok" if drift <= metrics[name]["bound"] else "WORSE"
                ok &= verdict == "ok"
                print(f"{workload:<11} {name:<12} worse by {drift:+.3f} (bound {metrics[name]['bound']})  {verdict}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
