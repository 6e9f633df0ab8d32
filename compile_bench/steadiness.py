#!/usr/bin/env python3
"""Record how steady the benchmark is: every workload on several seeds.

Run from the repository root:

    python3 compile_bench/steadiness.py --runs 10

Seeds 1..runs are taken seed by seed across the workloads, so each
workload's runs spread over the whole recording. Then one traced run per
workload (seed 42). Everything lands in compile_bench/record/:

    runs.jsonl              one line per timed run: workload, seed, result,
                            and the printed (ungated) wall-time figures
    summary.md              per workload and metric: median, quartiles,
                            spread (IQR / median) against the bound, min-max
    traced-<workload>.json  the traced run's per-layer result
    trace-<workload>.json   its Chrome-trace JSON (Perfetto loads it)
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import run

RECORD = os.path.join(run.HERE, "record")
# Wall-time figures the benchmark prints but does not report (README.md).
WALL_UNITS = {"loops_per_s": "1/s", "compile_ms_p50": "ms",
              "compile_ms_p99": "ms"}
RUNS = os.path.join(RECORD, "runs.jsonl")


def bench(workload, seed, seconds, trace):
    """One run; returns the parsed JSON result line and the printed,
    ungated wall-time figures ({name: value})."""
    out = subprocess.run(run.bench_command(workload, seed, seconds, trace),
                         env=run.bench_env(), capture_output=True,
                         text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit "
                 f"{out.returncode}\n{out.stdout}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    wall = {line.split()[0]: float(line.split()[1])
            for line in lines if line.endswith("(not gated)")}
    return json.loads(lines[-1]), wall


def summarize(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = [json.loads(line) for line in open(RUNS)]
    lines = ["# Steadiness record", "",
             f"{len(rows)} timed runs of `{' '.join(spec['command'])}` "
             f"at `--seconds {spec['run_seconds']}`, seeds "
             "taken seed by seed across the workloads. Spread is "
             "(Q3 - Q1) / median with Python's "
             "`statistics.quantiles(values, n=4)`. The wall-time rows "
             "are printed by the benchmark but not gated.", ""]
    worst = 0.0
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in rows if r["workload"] == workload]
        if not mine:
            continue
        seeds = ", ".join(str(r["seed"]) for r in mine)
        lines += [f"## {workload}", "", f"{len(mine)} runs, seeds {seeds}.",
                  "", "| metric | unit | median | Q1 | Q3 | spread | "
                  "bound | min | max |", "|---|---|---|---|---|---|---|---|---|"]
        table = [(name, [r["result"]["metrics"][name]["value"]
                         for r in mine],
                  mine[0]["result"]["metrics"][name]["unit"], bounds[name])
                 for name in bounds]
        table += [(name, [r["wall"][name] for r in mine], unit,
                   "not gated")
                  for name, unit in WALL_UNITS.items()]
        for name, values, unit, bound in table:
            q1, med, q3 = (statistics.quantiles(values, n=4)
                           if len(values) > 1 else [values[0]] * 3)
            spread = (q3 - q1) / med if med else 0.0
            if name in bounds and name != "setup_s":
                worst = max(worst, spread / bound)
            lines.append(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | "
                         f"{q3:.6g} | {spread:.4f} | {bound} | "
                         f"{min(values):.6g} | {max(values):.6g} |")
        lines.append("")
    lines += [f"Largest spread as a share of its bound (setup_s aside): "
              f"{worst:.2f}.", ""]
    with open(os.path.join(RECORD, "summary.md"), "w") as f:
        f.write("\n".join(lines))
    print("\n".join(lines))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    run.build()
    os.makedirs(RECORD, exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]]
    with open(RUNS, "w") as f:
        for seed in range(1, args.runs + 1):
            for workload in workloads:
                started = time.strftime("%H:%M:%S")
                result, wall = bench(workload, seed, seconds, 0)
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "started": started, "result": result,
                                    "wall": wall}) + "\n")
                f.flush()
                print(f"{started} {workload} seed {seed}: "
                      f"{wall['loops_per_s']:.1f} loops/s", flush=True)
    for workload in workloads:
        result, _ = bench(workload, 42, seconds, 1)
        with open(os.path.join(RECORD, f"traced-{workload}.json"), "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
        shutil.copyfile(os.path.join(run.BUILD,
                                     f"trace-{workload}-seed42.json"),
                        os.path.join(RECORD, f"trace-{workload}.json"))
    summarize(spec)


if __name__ == "__main__":
    main()
