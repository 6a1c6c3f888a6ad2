#!/usr/bin/env python3
"""Builds the layer-ledger benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_link --seed 1 --seconds 15 --trace 0

The benchmark program is configured with CMake in Release mode into the directory named
by CARGO_TARGET_DIR (default .bench_build) and rebuilt incrementally on every
call; build output goes to standard error. Its report is checked
against BENCHMARK.json: an untraced run must report exactly the end-to-end
metrics, a traced run only per-layer metrics (a layer the workload does not
exercise is reported as 0). The last
line of standard output is the JSON result; any failure exits non-zero
without printing one.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no RuleLink sources under {ROOT / 'src'}; nothing to build")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        compile_ = ["cmake", "--build", str(build_dir), "-j", jobs]
        if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return build_dir / "perfbench_ledger"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    lines = child.stdout.rstrip("\n").split("\n")
    if child.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark program exited with code {child.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    reported = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name, metric in reported.items():
        if name not in units:
            fail(f"benchmark program reported undeclared metric {name}")
        if metric["unit"] != units[name]:
            fail(f"metric {name} in {metric['unit']}, declared {units[name]}")
    metrics = {}
    for m in wanted:
        if m["name"] in reported:
            metrics[m["name"]] = reported[m["name"]]
        elif args.trace:
            print(f"metric {m['name']}: layer not exercised on "
                  f"{args.workload}, reported as 0")
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"end-to-end metric {m['name']} missing")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation attempted")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
