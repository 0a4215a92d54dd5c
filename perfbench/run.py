#!/usr/bin/env python3
"""Build the benchmark from source and run it.

One workload, as BENCHMARK.json's command runs it (from the repository root):

    python3 perfbench/run.py --workload trace_ladder --seed 1 --seconds 25 --trace 0

Every workload in turn, printing each metric by name with its unit:

    python3 perfbench/run.py --all [--seed 1] [--seconds 25] [--trace 0]

The program is configured and built with CMake under $CARGO_TARGET_DIR
(default .bench_build) on first use. The last line of standard output is
the run's JSON result; build output and the human-readable table go to
standard error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_grid", "trace_ladder", "audited_ladder", "served_replay"]
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build the perfbench binary; return its path."""
    os.makedirs(build_dir, exist_ok=True)
    generator = []
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        generator = ["-G", "Ninja"]
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
        check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete(result, declared, trace):
    """Give `result` exactly the declared metric set, in place.

    A per-layer metric of a layer the workload does not exercise reads 0.
    A missing or non-positive end-to-end metric, a unit that differs from
    the declared one, or a metric BENCHMARK.json does not declare makes
    the run incorrect.
    """
    got = result["metrics"]
    problems = [f"undeclared metric {name}" for name in got
                if name not in declared]
    metrics = {}
    for name, unit in declared.items():
        measured = got.get(name)
        if measured is None:
            if not trace:
                problems.append(f"end-to-end metric {name} not measured")
            measured = {"value": 0, "unit": unit}
        elif measured["unit"] != unit:
            problems.append(f"{name} measured in {measured['unit']}, "
                            f"declared in {unit}")
        elif not trace and not measured["value"] > 0:
            problems.append(f"end-to-end metric {name} is not positive")
        metrics[name] = {"value": measured["value"], "unit": unit}
    for problem in problems:
        log(f"perfbench: {problem}")
    result["metrics"] = metrics
    result["correct"] = result["correct"] and not problems


def run_one(binary, build_dir, workload, seed, seconds, trace):
    """Run one workload; return its JSON result with the declared metric
    set, or None if it did not produce one.

    The scratch directory is passed relative to the working directory so
    that the daemon's Unix socket path stays within the 108-byte limit.
    """
    declared = declared_metrics(trace)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", os.path.relpath(build_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with code {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    complete(result, declared, trace)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"perfbench: build failed: {error}")
        return 1

    if not args.all:
        result = run_one(binary, build_dir, args.workload, args.seed,
                         args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    results = {}
    for workload in WORKLOADS:
        result = run_one(binary, build_dir, workload, args.seed, args.seconds,
                         args.trace)
        if result is None:
            return 1
        results[workload] = result
    log(f"\n{'workload':16} {'metric':36} {'value':>16} unit")
    for workload, result in results.items():
        fail_frac = result["failed"] / max(1, result["attempted"])
        log(f"{workload:16} {'fail_frac':36} {fail_frac:16.6g} ratio")
        for name, metric in sorted(result["metrics"].items()):
            log(f"{workload:16} {name:36} {metric['value']:16.6g} "
                f"{metric['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
