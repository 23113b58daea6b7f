// Host-simulation-loop timing: the bit-packed SmSim vs the frozen
// pre-packing SmSimRef (sim/sm_sim_ref.h) on the fixed workload set of
// trace/sim_loop_workloads.h. The binary asserts SmStats byte-identity on
// every workload — a speedup from a simulator that stopped producing the
// same statistics would be meaningless — and prints the per-workload
// speedup the check_regression `sim_loop` gate floors.
//
//   sim_loop [--repeats=5] [--csv] [--json=PATH]
#include <iostream>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/table.h"
#include "sim/sim_loop_timing.h"
#include "trace/sim_loop_workloads.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  const int repeats = static_cast<int>(cli.get_int("repeats", 5));
  (void)cli.json_path();
  (void)cli.get_bool("csv", false);
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "sim_loop: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  Table t("Host simulation loop — packed SmSim vs reference (best of " +
          std::to_string(repeats) + ")");
  t.header({"workload", "blocks", "sim cycles", "instructions", "ref ms",
            "packed ms", "speedup", "stats"});
  for (const auto& w : trace::sim_loop_workloads(spec, calib)) {
    const auto m = sim::measure_sim_loop(w.name, w.kernel, w.resident_blocks,
                                         spec, calib, repeats);
    VITBIT_CHECK_MSG(m.stats_identical,
                     "packed simulator stats diverged from reference on "
                         << w.name);
    t.row()
        .cell(m.name)
        .cell(std::int64_t{w.resident_blocks})
        .cell(static_cast<std::int64_t>(m.cycles))
        .cell(static_cast<std::int64_t>(m.instructions))
        .cell(m.ref_seconds * 1e3, 2)
        .cell(m.packed_seconds * 1e3, 2)
        .cell(m.speedup, 2)
        .cell("identical");
  }
  bench::emit(t, cli);
  std::cout << "\nBoth simulators produce byte-identical SmStats; the "
               "speedup is pure host-side\nlayout (bitset scheduler masks, "
               "O(1) EXIT drain, pending-writeback masks).\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
