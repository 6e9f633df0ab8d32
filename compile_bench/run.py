#!/usr/bin/env python3
"""Build the compile benchmark from source and run one workload.

Run from the repository root:

    python3 compile_bench/run.py --workload suite-repl --seed 42 \
        --seconds 30 --trace 0
    python3 compile_bench/run.py --self-test

The Release build goes to .bench_build/compile_bench; its output goes
to standard error. The benchmark's own output follows on standard
output, ending with one JSON line. --trace 1 also writes a Chrome-trace
JSON file into the build directory. README.md defines the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "compile_bench")
BINARY = os.path.join(BUILD, "compile_bench")
WORKLOADS = ("suite-repl", "unified", "fig7-batch")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then bring the build up to date (a no-op when
    nothing changed); raises on any failure."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "4"],
                   stdout=sys.stderr, check=True)


def bench_env():
    """The caller's environment without the library's CVLIW_* knobs
    (tracing, fault injection, thread caps, suite-cache overrides),
    so every run measures the same configuration."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("CVLIW_")}


def bench_command(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{workload}-seed{seed}.json")]
    return cmd


def self_test():
    """The benchmark program's arithmetic self-test, then a short smoke
    run of every workload in both modes: each must pass its correctness
    gate and print every metric BENCHMARK.json names, with its unit."""
    subprocess.run([BINARY, "--self-test"], check=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from "
                             + ", ".join(WORKLOADS))
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(bench_command(workload, 42, 1, trace),
                                 env=bench_env(), capture_output=True,
                                 text=True, timeout=RUN_TIMEOUT_S)
            lines = out.stdout.strip().splitlines()
            where = f"{workload} --trace {trace}"
            if out.returncode != 0 or not lines:
                raise AssertionError(f"{where}: exit {out.returncode}\n"
                                     + out.stderr)
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"] or not result["correct"]:
                raise AssertionError(f"{where}: bad result {lines[-1]}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise AssertionError(f"{where}: metrics {got} != {want}")
            table = "\n".join(lines[:-1])
            for name, unit in want.items():
                if not any(line.split()[:1] == [name] and unit in line
                           for line in table.splitlines()):
                    raise AssertionError(f"{where}: {name} [{unit}] "
                                         "not printed")
            print(f"smoke {where}: {len(got)} metrics ok")
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"compile_bench: build failed: {err}", file=sys.stderr)
        return 2
    if args.self_test:
        self_test()
        return 0
    try:
        done = subprocess.run(
            bench_command(args.workload, args.seed, args.seconds,
                          args.trace),
            env=bench_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("compile_bench: run timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
