// Extension bench: serving simulation rate sweep. Replays an open-loop
// request stream against one batching shard and reports, per arrival
// rate, the goodput (completions within the SLO per second), p99 latency,
// and drop rate of the tensor-core baseline next to VitBit — where the
// paper's kernel-level speedup becomes user-visible capacity.
//
//   serve_sim [--rates=100,200,...] [--rate=N] [--arrival=poisson]
//             [--duration-s=2] [--seed=42] [--policy=timeout]
//             [--max-batch=8] [--batch-timeout-us=2000]
//             [--queue-capacity=64] [--num-gpus=1] [--slo-us=50000]
//             [--layers=12] [--threads=N] [--csv] [--json=PATH]
//
// Fault injection (serve/faults.h; every process off by default):
//             [--fault-seed=1] [--mtbf-s=0] [--mttr-s=0.05]
//             [--batch-fail-prob=0] [--spike-prob=0] [--spike-mult=4]
//             [--max-retries=2] [--retry-backoff-us=1000]
//             [--degrade-below=0] [--fallback=TC]
//
// --json writes a schema-versioned run report (serve_points section) —
// the document CI diffs across thread counts byte-for-byte, with and
// without faults enabled.
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

  // The one flag set shared with `vitbit_cli serve`, validated on return.
  const auto cfg = serve::sweep_config_from_cli(cli);
  const bool csv = cli.get_bool("csv", false);
  const std::string json = cli.json_path();

  // Reject typos before the expensive sweep: a misspelled knob silently
  // reverting to its default would invalidate the whole table.
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "serve_sim: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  const auto points = serve::run_rate_sweep(cfg, spec, calib, &pool);
  const auto t = serve::sweep_table(cfg, points);
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);

  if (!json.empty()) {
    auto rep = serve::make_serve_report(cfg, points, "serve_sim",
                                        pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(json, rep);
  }

  std::cout << "\nGoodput counts completions within the "
            << cfg.server.slo_us / 1000 << " ms SLO. VitBit's lower batch\n"
               "latency drains the queue faster, so it sustains a higher\n"
               "arrival rate before p99 blows up and drops begin.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
