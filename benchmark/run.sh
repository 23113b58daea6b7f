#!/usr/bin/env bash
# Builds the benchmark (benchmark/CMakeLists.txt, into build/benchmark) and
# runs workloads, each in its own process so peak RSS is per workload.
#
#   benchmark/run.sh [--workload=all|NAME] [--seed=N] [--seconds=S]
#                    [--threads=4] [--trace=0|1|PATH] [--smoke]
#                    [--write-expected]
#
# Flags also take their value as the next argument (--seed 3). Each
# workload prints "<workload> <metric> <value> <unit>" lines and a JSON
# result line; with --workload=all a combined JSON line comes last. Build
# output goes to stderr. Exits non-zero if the build fails or any output
# check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build/benchmark"
workload=all
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload=*) workload="${1#*=}" ;;
    --workload) workload="${2:?--workload needs a value}"; shift ;;
    --smoke | --write-expected) args+=("$1") ;;
    --*=*) args+=("$1") ;;
    --*) args+=("$1=${2:?$1 needs a value}"); shift ;;
    *) echo "run.sh: unexpected argument $1" >&2; exit 2 ;;
  esac
  shift
done

if [ "$workload" = all ]; then
  workloads=(vit_figures zoo_tables fleet_serving functional_vit)
else
  workloads=("$workload")
fi

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2

status=0
results=()
for w in "${workloads[@]}"; do
  out="$("$build/vitbit_bench" --workload="$w" \
    --manifest="$root/BENCHMARK.json" \
    --expected-dir="$root/benchmark/expected" ${args[@]+"${args[@]}"})" ||
    status=1
  printf '%s\n' "$out"
  results+=("$(printf '%s\n' "$out" | tail -n 1)")
done

if [ "${#workloads[@]}" -gt 1 ]; then
  # One line for the whole set: correct only if every workload was, counts
  # summed, metrics keyed "<workload>.<metric>".
  printf '%s\n' "${results[@]}" | python3 -c '
import json, sys
names = sys.argv[1:]
merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
for name, line in zip(names, sys.stdin):
    try:
        r = json.loads(line)
    except ValueError:
        merged["correct"] = False
        continue
    merged["correct"] = merged["correct"] and r["correct"]
    merged["attempted"] += r["attempted"]
    merged["failed"] += r["failed"]
    for k, v in r["metrics"].items():
        merged["metrics"][name + "." + k] = v
print(json.dumps(merged))
' "${workloads[@]}"
fi
exit "$status"
