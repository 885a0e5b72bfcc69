#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload hot_solve --seeds 1 2 3 4 5

For every metric of BENCHMARK.json (end-to-end with --trace 0, per-layer
with --trace 1) it prints the median, the quartiles and the spread: the
interquartile distance as a share of the median, as
statistics.quantiles(values, n=4) gives them, and every run's value.
End-to-end spreads are marked against the metric's bound: `ok` below a
third of it (the steadiness target), `within` below the bound itself (the
acceptance rule), `WIDE` otherwise. Run logs go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = a.seconds or bench["run_seconds"]
    specs = bench["end_to_end"] if a.trace == "0" else bench["per_layer"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    values = {s["name"]: [] for s in specs}
    for seed in a.seeds:
        log = os.path.join(HERE, "out", f"run-{a.workload}-{seed}-trace{a.trace}.log")
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", a.trace]
        with open(log, "w") as fh:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT).returncode
        with open(log) as fh:
            last = fh.read().strip().splitlines()[-1]
        if rc != 0:
            print(f"seed {seed}: exit {rc}; see {log}")
            return 1
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for s in specs:
        v = values[s["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = s.get("bound")
        mark = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else "within" if spread < bound else "WIDE"
            mark = f"  bound {bound}  {verdict}"
        print(f"{s['name']:<30} median {med:12.4f} {s['unit']:<8} q1 {q1:12.4f} q3 {q3:12.4f} "
              f"spread {spread:7.3f}{mark}")
        print(f"{'':<30} runs {' '.join(f'{x:.4f}' for x in v)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
