// Extension bench: class-aware scheduled fleet sweep — the sched and
// cluster tiers unified. Every shard is a full continuous-batching
// scheduler (any mode, priority classes, per-replica LRU weight caches,
// optional preemption-aware autoscaling); the router adds the warm
// policy, steering interactive classes onto shards already holding the
// request's model weights while batch classes stay on cold shards; the
// spread placement prestages the zoo so every model is warm somewhere.
// Reports, per (mode, route, rate), goodput, p99, drop rate, preemption
// and cold-swap counts, and the per-shard utilization spread.
//
//   fleet_sched_sim [--shards=4] [--routes=jsq,warm] [--route=jsq]
//                   [--route-seed=1] [--placement=spread]
//                   [--cold-route-classes=1]
//                   [--models=vit-b] [--strategy=VitBit]
//                   [--modes=fifo,cb,cb-pre] [--rates=200,400] [--rate=N]
//                   [--classes=default] [--weights=1] [--slos-us=50000]
//                   [--shares=1] [--arrivals=poisson] [--mix=...]
//                   [--mix0=... --mix1=...] [--duration-s=2] [--seed=42]
//                   [--max-batch=8] [--queue-capacity=64] [--num-gpus=1]
//                   [--iters=4] [--slo-us=50000] [--cache-models=1]
//                   [--load-gbps=8] [--warm-swap-us=200] [--exact]
//                   [--threads=N] [--csv] [--json=PATH]
//
// Autoscaling (on when --max-replicas > --min-replicas; the preemption-
// aware signals are per class):
//                   [--min-replicas=NUM_GPUS] [--max-replicas=MIN]
//                   [--scale-interval-us=50000] [--scale-up-depth=16]
//                   [--scale-down-depth=2] [--scale-p99-us=0]
//                   [--scale-cooldown-us=200000]
//                   [--scale-preempt-per-s=0] [--scale-slo-miss-rate=0]
//
// --json writes a schema-versioned run report (fleet_sched_points
// section) — the document CI diffs across --threads=1/2/4 byte-for-byte
// (the fleet loop is single-threaded per sweep point; parallelism only
// fans out over points).
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "serve/cluster.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);

  // The one flag set shared with `vitbit_cli fleet-sched`, validated on
  // return.
  const auto cfg = serve::fleet_sched_config_from_cli(cli);
  const bool csv = cli.get_bool("csv", false);
  const std::string json = cli.json_path();

  // Reject typos before the expensive sweep: a misspelled knob silently
  // reverting to its default would invalidate the whole table.
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "fleet_sched_sim: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  const auto points = serve::run_fleet_sched_sweep(cfg, spec, calib, &pool);
  const auto t = serve::fleet_sched_table(cfg, points);
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);

  if (!json.empty()) {
    auto rep = serve::make_fleet_sched_report(cfg, points, "fleet_sched_sim",
                                              pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(json, rep);
  }

  std::cout << "\nEvery (mode, route) pair faces the same request stream. "
               "Warm routing\nkeeps each model on the shards that already "
               "hold its weights, so the\ncold-swap column collapses next "
               "to jsq at equal offered traffic —\nand cb-pre recovers the "
               "interactive tail on top.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
