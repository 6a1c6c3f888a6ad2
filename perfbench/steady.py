#!/usr/bin/env python3
"""Steadiness check for the layer-ledger benchmark.

Runs every workload of BENCHMARK.json once per seed through
perfbench/run.py, for run_seconds each, and reports, for each end-to-end
metric, the median, the interquartile range as a share of the median
(statistics.quantiles, n=4) and that spread against the metric's bound. A
spread under a third of the bound is "steady"; under the bound "within";
above it "UNSTEADY". With --compare, the medians are also compared with an
earlier --out file: a median worse by more than the bound is a
"REGRESSION". The share of failed operations is printed per workload.

    python3 perfbench/steady.py --runs 10 --out /tmp/set1.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --compare /tmp/set1.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace",
               str(trace)]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
    if child.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited {child.returncode}")
    return json.loads(child.stdout.strip().split("\n")[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the raw results here")
    parser.add_argument("--compare", help="earlier --out file to compare")
    args = parser.parse_args()

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            begin = time.monotonic()
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed} ({time.monotonic() - begin:.0f} s"
                  " wall): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        results[workload] = runs

        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{failed}/{attempted}, all correct: {correct}")
        print(f"  {'metric':<16}{'median':>14}{'spread':>9}{'bound':>8}"
              f"  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "UNSTEADY"
            if workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload])
                shift = (median - before) / before if before else 0.0
                worse = -shift if metric["better"] == "higher" else shift
                verdict += f", shift {shift:+.3f}"
                if worse > bound:
                    verdict += " REGRESSION"
            print(f"  {name:<16}{median:>14.6g}{spread:>9.4f}{bound:>8.3f}"
                  f"  {verdict}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
