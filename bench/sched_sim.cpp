// Extension bench: continuous-batching scheduler sweep over the model
// zoo. Drives a mixed multi-class request stream through the three
// scheduling modes (fifo, cb, cb-pre) at each offered rate and reports,
// per (mode, rate), aggregate goodput, drop rate, preemption and model-
// swap counts, and per-class p99 — the experiment that shows deadline-
// aware continuous batching protecting the interactive class's tail
// while FIFO lets a batch-class burst starve it. Latencies stream
// through P² sketches and arrivals through MixedWorkloadStream, so peak
// sink memory is independent of the request count: 10^6-request points
// are routine.
//
//   sched_sim [--models=vit-b,...] [--strategy=VitBit]
//             [--modes=fifo,cb,cb-pre] [--rates=200,400] [--rate=N]
//             [--classes=interactive,batch] [--weights=4,1]
//             [--slos-us=5000,100000] [--shares=0.3,0.7]
//             [--arrivals=poisson,bursty] [--burst-on-s=0.02]
//             [--burst-off-s=0.08] [--mix=0.5,0.5] [--mix0=...] [--mix1=...]
//             [--duration-s=2] [--seed=42] [--max-batch=8]
//             [--queue-capacity=64] [--num-gpus=1] [--iters=4]
//             [--slo-us=50000] [--cache-models=1] [--load-gbps=8]
//             [--warm-swap-us=200] [--exact] [--threads=N] [--csv]
//             [--json=PATH]
//
// Every mode at every rate faces the byte-identical request stream, so
// column deltas are scheduling policy, not sampling noise. --json writes
// a schema-versioned run report (sched_points section) — the document CI
// diffs across --threads=1/2/4 byte-for-byte.
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

  // The one flag set shared with `vitbit_cli sched`, validated on return
  // (duplicate model names, non-positive weights, and non-finite mix
  // fractions are rejected here, before any table is built).
  const auto cfg = serve::sched_config_from_cli(cli);
  const bool csv = cli.get_bool("csv", false);
  const std::string json = cli.json_path();

  // Reject typos before the expensive sweep: a misspelled knob silently
  // reverting to its default would invalidate the whole table.
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "sched_sim: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  const auto points = serve::run_sched_sweep(cfg, spec, calib, &pool);
  const auto t = serve::sched_table(cfg, points);
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);

  if (!json.empty()) {
    auto rep = serve::make_sched_report(cfg, points, "sched_sim",
                                        pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(json, rep);
  }

  std::cout << "\nEvery mode faces the same mixed request stream. FIFO "
               "serves arrival\norder blind to class; continuous batching "
               "(cb) refills at iteration\nboundaries under weighted "
               "round-robin; cb-pre additionally preempts\nlow-priority "
               "residents for deadline-critical arrivals — watch the\n"
               "high-priority p99 column drop while the preempted class "
               "pays.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
