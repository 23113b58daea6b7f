// Extension bench: sharded fleet sweep. Routes an open-loop request
// stream across many single-model shards under a balancing policy and
// reports, per arrival rate, goodput, p99, drop rate, and the per-shard
// utilization spread of round-robin next to join-shortest-queue and
// power-of-two-choices — the classic load-balancing comparison, run on
// VitBit-calibrated batch latencies. Latencies stream through P² sketches
// and arrivals through WorkloadStream, so peak sink memory is independent
// of the request count: 10^7-request points are routine.
//
//   fleet_sim [--shards=4] [--routes=rr,jsq,po2c] [--route=jsq]
//             [--route-seed=1] [--strategy=VitBit] [--rates=2000,...]
//             [--rate=N] [--arrival=poisson] [--duration-s=2] [--seed=42]
//             [--policy=timeout] [--max-batch=8] [--batch-timeout-us=2000]
//             [--queue-capacity=64] [--replicas=1] [--slo-us=50000]
//             [--layers=12] [--exact] [--threads=N] [--csv] [--json=PATH]
//
// Autoscaling (on when --max-replicas > --min-replicas):
//             [--min-replicas=REPLICAS] [--max-replicas=MIN]
//             [--scale-interval-us=50000] [--scale-up-depth=16]
//             [--scale-down-depth=2] [--scale-p99-us=0]
//             [--scale-cooldown-us=200000]
//
// Fault injection (serve/faults.h; every process off by default):
//             [--fault-seed=1] [--mtbf-s=0] [--mttr-s=0.05]
//             [--batch-fail-prob=0] [--spike-prob=0] [--spike-mult=4]
//             [--max-retries=2] [--retry-backoff-us=1000]
//             [--degrade-below=0] [--fallback=TC]
//
// --json writes a schema-versioned run report (fleet_points section) —
// the document CI diffs across --threads=1/2/4 byte-for-byte (three
// counts, because the sketch merge is order-sensitive).
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

  // The one flag set shared with `vitbit_cli fleet`, validated on return.
  const auto cfg = serve::fleet_config_from_cli(cli);
  const bool csv = cli.get_bool("csv", false);
  const std::string json = cli.json_path();

  // Reject typos before the expensive sweep: a misspelled knob silently
  // reverting to its default would invalidate the whole table.
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "fleet_sim: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  const auto points = serve::run_fleet_sweep(cfg, spec, calib, &pool);
  const auto t = serve::fleet_table(cfg, points);
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);

  if (!json.empty()) {
    auto rep = serve::make_fleet_report(cfg, points, "fleet_sim",
                                        pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(json, rep);
  }

  std::cout << "\nEach policy faces the same request stream. Blind "
               "round-robin leaves\nsome shards idle while others queue; "
               "two random probes (po2c) close\nmost of the gap to the "
               "full join-shortest-queue scan — watch the p99\nand "
               "utilization-spread columns converge.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
