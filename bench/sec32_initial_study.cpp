// Reproduces the paper's Section 3.2 initial study: GEMM execution time for
// TC / IC / FC / IC+FC / IC+FC+P, normalized to TC. The paper measured
// approximately 1 : 7.5 : 7.5 : 6.5 : 4 on Jetson AGX Orin and derived the
// Tensor:CUDA assignment ratio m = 4 from it.
#include <iostream>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "sim/launcher.h"
#include "trace/gemm_traces.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  trace::GemmShape shape = bench::study_shape();
  shape.m = static_cast<int>(cli.get_int("m", shape.m));
  shape.k = static_cast<int>(cli.get_int("k", shape.k));
  shape.n = static_cast<int>(cli.get_int("n", shape.n));

  struct Row {
    const char* name;
    trace::GemmBlockPlan plan;
    double paper_ratio;
  };
  const std::vector<Row> rows = {
      {"TC", trace::plan_tc(calib), 1.0},
      {"IC", trace::plan_ic(calib), 7.5},
      {"FC", trace::plan_fc(calib), 7.5},
      {"IC+FC", trace::plan_ic_fc(calib), 6.5},
      {"IC+FC+P", trace::plan_ic_fc_packed(calib), 4.0},
  };

  Table t("Section 3.2 initial study — GEMM " + std::to_string(shape.m) +
          "x" + std::to_string(shape.k) + "x" + std::to_string(shape.n));
  t.header({"method", "cycles", "time(ms)", "model ratio", "paper ratio"});
  const bool debug = cli.get_bool("debug", false);
  struct Launched {
    sim::KernelSpec kernel;
    sim::LaunchResult result;
  };
  const auto launched = parallel_map(&pool, rows.size(), [&](std::size_t i) {
    auto kernel = trace::build_gemm_kernel(shape, rows[i].plan, spec, calib);
    auto result = sim::launch_kernel(kernel, spec, calib);
    return Launched{std::move(kernel), std::move(result)};
  });
  std::vector<double> cycles;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = launched[i].result;
    cycles.push_back(static_cast<double>(r.total_cycles));
    if (debug) {
      std::cout << rows[i].name << ": blocks/SM=" << r.blocks_per_sm
                << " waves=" << r.waves
                << " grid=" << launched[i].kernel.grid_blocks
                << " sm_cycles=" << r.sm.cycles << " ipc=" << r.sm.ipc()
                << "\n  util INT="
                << r.sm.utilization(sim::ExecUnit::kIntPipe, 4)
                << " FP=" << r.sm.utilization(sim::ExecUnit::kFpPipe, 4)
                << " TC=" << r.sm.utilization(sim::ExecUnit::kTensor, 4)
                << " LSU=" << r.sm.utilization(sim::ExecUnit::kLsu, 1)
                << " SFU=" << r.sm.utilization(sim::ExecUnit::kSfu, 4) << "\n";
    }
  }
  const double tc_cycles = cycles[0];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t.row()
        .cell(rows[i].name)
        .cell(static_cast<std::int64_t>(cycles[i]))
        .cell(cycles[i] / (spec.clock_ghz * 1e6), 3)
        .cell(cycles[i] / tc_cycles, 2)
        .cell(rows[i].paper_ratio, 1);
  }
  bench::emit(t, cli);
  std::cout << "\nDerived Tensor:CUDA split ratio m ~= "
            << format_fixed(cycles[4] / tc_cycles, 1)
            << " (paper: 4)\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
