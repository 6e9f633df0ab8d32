#!/usr/bin/env bash
# Build Release, run the compiler-throughput micro-benchmarks and
# write BENCH_pipeline.json at the repo root.
#
# The emitted file keeps a "baseline" section so the perf trajectory
# is visible PR over PR: on the first run the current numbers become
# the baseline; later runs preserve the stored baseline and report
# per-benchmark speedups against it. Refresh the baseline explicitly
# with --rebaseline after an intentional perf change has landed.
#
# With --gate RATIO the script exits non-zero when any benchmark runs
# slower than RATIO times its stored baseline (e.g. --gate 0.9 fails
# on >10% regressions), or when a gated baseline benchmark is missing
# from the run (renamed or deleted). Only benchmarks whose baseline
# is at least 1 ms are gated: microsecond-scale benches swing past
# 10% from scheduler noise alone on shared runners, while the coarse
# end-to-end ones are stable. Only meaningful when the baseline was
# recorded on comparable hardware; CI re-baselines first for that
# reason.
#
# Usage: scripts/bench.sh [--rebaseline] [--min-time SECONDS]
#                         [--gate RATIO]

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-bench"
out_json="${repo_root}/BENCH_pipeline.json"
raw_json="${build_dir}/perf_micro_raw.json"

rebaseline=0
min_time=0.2
gate=""
while [[ $# -gt 0 ]]; do
    case "$1" in
      --rebaseline) rebaseline=1; shift ;;
      --min-time) min_time="$2"; shift 2 ;;
      --gate) gate="$2"; shift 2 ;;
      *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release \
      -DCVLIW_BUILD_TESTS=OFF -DCVLIW_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${build_dir}" --target perf_micro -j >/dev/null

if [[ ! -x "${build_dir}/perf_micro" ]]; then
    echo "perf_micro was not built (google-benchmark missing?)" >&2
    exit 1
fi

"${build_dir}/perf_micro" \
    --benchmark_format=json \
    --benchmark_min_time="${min_time}" > "${raw_json}"

python3 - "$raw_json" "$out_json" "$rebaseline" "$gate" <<'PY'
import json
import sys

raw_path, out_path, rebaseline = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
gate = float(sys.argv[4]) if sys.argv[4] else None
raw = json.load(open(raw_path))

current = {
    b["name"]: {"real_time": b["real_time"], "time_unit": b["time_unit"]}
    for b in raw["benchmarks"]
    if b.get("run_type", "iteration") == "iteration"
}

baseline = None
baseline_label = None
try:
    prev = json.load(open(out_path))
    if not rebaseline:
        baseline = prev.get("baseline")
        baseline_label = prev.get("baseline_label")
except (OSError, ValueError):
    pass
if baseline is None:
    baseline = current
    baseline_label = "rebaselined from this run"

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(entry):
    return entry["real_time"] * UNIT_NS.get(entry["time_unit"], 1.0)


speedup = {}
for name, cur in current.items():
    base = baseline.get(name)
    if base and cur["real_time"] > 0:
        # Normalize units: a bench's reported time_unit may change
        # between the stored baseline and this run.
        speedup[name] = round(to_ns(base) / to_ns(cur), 3)

doc = {
    "schema": "cvliw-bench-pipeline-v1",
    "generated_by": "scripts/bench.sh",
    "context": raw.get("context", {}),
    "baseline_label": baseline_label,
    "baseline": baseline,
    "current": current,
    "speedup_vs_baseline": speedup,
}
json.dump(doc, open(out_path, "w"), indent=2, sort_keys=True)
print(f"wrote {out_path}")
for name in sorted(speedup):
    print(f"  {name}: {speedup[name]}x vs baseline")

if gate is not None:
    def coarse(name):
        base = baseline.get(name)
        # Gate only >=1ms benches: stable on CI.
        return bool(base) and to_ns(base) >= 1e6

    slow = {n: s for n, s in speedup.items()
            if s < gate and coarse(n)}
    missing = sorted(n for n in baseline if coarse(n) and n not in current)
    if slow:
        print(f"FAIL: benchmarks regressed past the {gate}x gate:")
        for name in sorted(slow):
            print(f"  {name}: {slow[name]}x vs baseline")
    if missing:
        print("FAIL: gated baseline benchmarks missing from this run:")
        for name in missing:
            print(f"  {name}")
    if slow or missing:
        sys.exit(1)
    print(f"gate ok: every >=1ms baseline benchmark ran, none below "
          f"{gate}x of baseline")
PY
