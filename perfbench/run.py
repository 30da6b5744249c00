#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the csspgo libraries from ../src and the perfbench binary into
.bench_build/perfbench ($CARGO_TARGET_DIR replaces .bench_build when set;
incremental after the first run), runs it, and prints its report.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; each metric carries its value and the unit
BENCHMARK.json declares for it. Exits non-zero without printing a
result when the sources are missing, the build fails, the binary dies, or the
binary's metrics differ from the ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The build tree lives under the checkout's .bench_build (or wherever
# CARGO_TARGET_DIR points, relative to the working directory).
BUILD_DIR = (Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
             .resolve() / "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})", 3)
    return BUILD_DIR / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    units = declared_metrics(args.trace)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s", 4)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stdout, end="")
        fail(f"perfbench exited with {proc.returncode} and printed no result", 5)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(proc.stdout, end="")
        fail("perfbench metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(units) - set(metrics))}, undeclared "
             f"{sorted(set(metrics) - set(units))}", 6)

    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
