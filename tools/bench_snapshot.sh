#!/usr/bin/env bash
# Writes BENCH_<pr>.json at the repository root: one committed performance
# snapshot per change, so the trajectory of every end-to-end and per-layer
# number is in the history.
#
#   tools/bench_snapshot.sh PR [--pairs=FILE]
#
# The snapshot holds:
#   host        nproc, CPU model and compiler;
#   tier1       wall seconds and result of `ctest --test-dir build -j4`
#               (the tier-1 build is configured and built first);
#   check_regression
#               wall seconds and exit status of
#               `build/tools/check_regression --threads=4`, and each gate's
#               host_wall_seconds from its fresh report;
#   benchmark   the combined result line of `benchmark/run.sh --seed=1`;
#   traced      every "<workload> <metric> <value> <unit>" line of
#               `benchmark/run.sh --seed=1 --trace=1`, as
#               {workload: {metric: value}};
#   pairs       only with --pairs: for each workload, side and end-to-end
#               metric of BENCHMARK.json, the run count, median and
#               quartiles (statistics.quantiles, n=4), and for the change
#               side the number of seeds on which it beat the parent.
#
# A --pairs file has one JSON object per line:
#   {"side": "parent"|"change", "workload": W, "seed": S, "result": R}
# where R is the last line `benchmark/run.sh --workload=W --seed=S` printed
# in that side's checkout. The script only runs benchmark/ and never edits
# it. Build output and test logs go to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pr="${1:?usage: tools/bench_snapshot.sh PR [--pairs=FILE]}"
shift
pairs=""
for arg in "$@"; do
  case "$arg" in
    --pairs=*) pairs="${arg#*=}" ;;
    *) echo "bench_snapshot.sh: unexpected argument $arg" >&2; exit 2 ;;
  esac
done
if [ -n "$pairs" ] && [ ! -f "$pairs" ]; then
  echo "bench_snapshot.sh: no pairs file $pairs" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Wall seconds of a command; its exit status goes to $work/<name>.status.
timed() {
  local name="$1"
  shift
  local t0 t1 status=0
  t0=$(date +%s.%N)
  "$@" >&2 || status=$?
  t1=$(date +%s.%N)
  echo "$status" > "$work/$name.status"
  python3 -c "print(round($t1 - $t0, 3))" > "$work/$name.wall"
}

cmake -B "$root/build" -S "$root" >&2
cmake --build "$root/build" -j "$(nproc)" >&2
timed tier1 ctest --test-dir "$root/build" -j4 --output-on-failure
timed check_regression "$root/build/tools/check_regression" \
  --baselines="$root/baselines" --threads=4 --json="$work/gates.json"

bash "$root/benchmark/run.sh" --seed=1 | tail -n 1 > "$work/benchmark.json"
bash "$root/benchmark/run.sh" --seed=1 --trace=1 > "$work/traced.txt"

nproc > "$work/nproc"
{ grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- || true; } \
  > "$work/cpu"
{ "${CXX:-c++}" --version 2>/dev/null | head -n 1 || true; } \
  > "$work/compiler"

python3 - "$root" "$pr" "$work" "$pairs" <<'EOF'
import json, os, statistics, sys

root, pr, work, pairs = sys.argv[1:5]


def read(name):
    with open(os.path.join(work, name)) as f:
        return f.read().strip()


snap = {
    "pr": int(pr),
    "host": {"nproc": int(read("nproc")), "cpu": read("cpu"),
             "compiler": read("compiler")},
}
for name in ("tier1", "check_regression"):
    snap[name] = {"wall_s": float(read(name + ".wall")),
                  "exit": int(read(name + ".status"))}
gates = os.path.join(work, "gates.json")
if os.path.exists(gates):
    with open(gates) as f:
        snap["check_regression"]["gate_wall_s"] = {
            k: v.get("host_wall_seconds") for k, v in json.load(f).items()}
snap["benchmark"] = json.loads(read("benchmark.json"))
traced = {}
for line in read("traced.txt").splitlines():
    parts = line.split()
    if len(parts) != 4 or line.startswith("{"):
        continue
    try:
        traced.setdefault(parts[0], {})[parts[1]] = float(parts[2])
    except ValueError:
        pass
snap["traced"] = traced

if pairs:
    manifest = json.load(open(os.path.join(root, "BENCHMARK.json")))
    runs = [json.loads(l) for l in open(pairs) if l.strip()]
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        out[w] = {}
        for m in manifest["end_to_end"]:
            by_side = {}
            for side in ("parent", "change"):
                vals = {r["seed"]: r["result"]["metrics"][m["name"]]["value"]
                        for r in runs
                        if r["workload"] == w and r["side"] == side}
                if not vals:
                    continue
                entry = {"n": len(vals),
                         "median": statistics.median(vals.values()),
                         "failed": sum(r["result"]["failed"] for r in runs
                                       if r["workload"] == w
                                       and r["side"] == side)}
                if len(vals) >= 2:
                    q1, _, q3 = statistics.quantiles(vals.values(), n=4)
                    entry.update(q1=q1, q3=q3)
                by_side[side] = (entry, vals)
            if "parent" in by_side and "change" in by_side:
                parent, change = by_side["parent"][1], by_side["change"][1]
                seeds = sorted(set(parent) & set(change))
                higher = m["better"] == "higher"
                by_side["change"][0]["wins"] = sum(
                    (change[s] > parent[s]) == higher and
                    change[s] != parent[s] for s in seeds)
                by_side["change"][0]["paired_seeds"] = seeds
            out[w][m["name"]] = {s: e for s, (e, _) in by_side.items()}
    snap["pairs"] = out

path = os.path.join(root, f"BENCH_{pr}.json")
with open(path, "w") as f:
    json.dump(snap, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"wrote {path}")
EOF
