#!/usr/bin/env python3
"""Runs the scwsc benchmark.

    python3 perfbench/run.py --workload hot_cache --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Builds the library, `scwsc_cli` and the driver from this checkout (Release,
into $CARGO_TARGET_DIR or .bench_build), then runs the driver, which starts
`scwsc_cli --serve` as a child and drives it over loopback. The last line
of standard output is the result object. `--workload all` runs every
workload in turn and ends with one object holding each workload's result.
Build output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_cache", "cold_solve", "live_delta"]
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the driver and the server binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no scwsc sources next to the benchmark in {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], **quiet).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                       "scwsc_cli", "perfbench_driver"], **quiet).returncode:
        fail("build failed")
    return (os.path.join(build_dir, "perfbench_driver"),
            os.path.join(build_dir, "scwsc", "examples", "scwsc_cli"))


def describe():
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--tags"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    """The metric names and units BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(driver, cli, work, workload, args, git):
    cmd = [driver, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--work", work, "--latency-limit-ms",
           str(args.latency_limit_ms), "--describe", git]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: the driver did not finish in {DRIVER_TIMEOUT_S} s")
    lines = out.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"{workload}: the driver printed no result "
             f"(exit code {out.returncode})")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(args.trace):
        fail(f"{workload}: the metrics printed do not match BENCHMARK.json")
    return out.returncode, lines[-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--latency-limit-ms", type=float, default=50.0,
                        help="tail latency limit of the hot_cache rate ladder")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    driver, cli = build(os.path.join(build_root, "perfbench"))
    work = os.path.join(build_root, "perfbench-work")
    git = describe()

    if args.workload != "all":
        code, line, _ = run_driver(driver, cli, work, args.workload, args, git)
        print(line)
        sys.exit(code)
    results, worst = {}, 0
    for workload in WORKLOADS:
        code, _, result = run_driver(driver, cli, work, workload, args, git)
        results[workload] = result
        worst = max(worst, code)
    print(json.dumps({"workloads": results}, sort_keys=True))
    sys.exit(worst)


if __name__ == "__main__":
    main()
