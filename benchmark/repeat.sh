#!/usr/bin/env bash
# Repeats the benchmark to measure its run-to-run spread, the basis of the
# bounds in BENCHMARK.json.
#
#   benchmark/repeat.sh N [--sets=1|2] [--workload=all|NAME] [--seconds=S]
#
# Runs N processes per workload and set, alternating workloads and sets, a
# fresh seed each run (set 1: seeds 1..N, set 2: N+1..2N). For every
# workload and end-to-end metric it prints the median, the quartiles
# (statistics.quantiles, n=4) and the spread (q3 - q1) / median, against
# the metric's bound. With --sets=2 it also prints how much worse the
# second set's median is than the first's, and exits 1 if that exceeds
# the bound for any metric, or any run fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
n="${1:?usage: repeat.sh N [--sets=1|2] [--workload=all|NAME] [--seconds=S]}"
shift
sets=1
workload=all
extra=()
for arg in "$@"; do
  case "$arg" in
    --sets=*) sets="${arg#*=}" ;;
    --workload=*) workload="${arg#*=}" ;;
    --seconds=*) extra+=("$arg") ;;
    *) echo "repeat.sh: unexpected argument $arg" >&2; exit 2 ;;
  esac
done
if [ "$workload" = all ]; then
  workloads=(vit_figures zoo_tables fleet_serving functional_vit)
else
  workloads=("$workload")
fi

mkdir -p "$root/build/benchmark"
results="$root/build/benchmark/repeat-$$.jsonl"
: > "$results"
failed=0
for ((i = 1; i <= n; i++)); do
  for ((s = 1; s <= sets; s++)); do
    seed=$(((s - 1) * n + i))
    for w in "${workloads[@]}"; do
      if line="$(bash "$root/benchmark/run.sh" --workload="$w" --seed="$seed" \
        ${extra[@]+"${extra[@]}"} 2>/dev/null | tail -n 1)"; then
        printf '{"workload": "%s", "set": %d, "result": %s}\n' \
          "$w" "$s" "$line" >> "$results"
      else
        echo "repeat.sh: $w seed $seed failed" >&2
        failed=1
      fi
      echo "repeat.sh: run $i/$n set $s $w done" >&2
    done
  done
done

python3 - "$root/BENCHMARK.json" "$results" "$sets" <<'EOF' || failed=1
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
sets = int(sys.argv[3])
ok = True
for w in dict.fromkeys(r["workload"] for r in runs):
    print(f"== {w}")
    print(f"{'metric':<14}{'set':>4}{'n':>4}{'median':>14}{'q1':>14}"
          f"{'q3':>14}{'spread':>9}{'bound':>8}{'worse':>9}")
    for m in manifest["end_to_end"]:
        medians = []
        for s in range(1, sets + 1):
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if r["workload"] == w and r["set"] == s]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            medians.append(med)
            worse = ""
            if len(medians) == 2:
                a, b = medians
                d = (b - a) / a if m["better"] == "lower" else (a - b) / a
                worse = f"{d:+.4f}"
                ok = ok and d <= m["bound"]
            print(f"{m['name']:<14}{s:>4}{len(vals):>4}{med:>14.6g}"
                  f"{q1:>14.6g}{q3:>14.6g}{(q3 - q1) / med:>9.4f}"
                  f"{m['bound']:>8}{worse:>9}")
sys.exit(0 if ok else 1)
EOF
rm -f "$results"
exit "$failed"
