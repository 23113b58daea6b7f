// Ablation B: sensitivity of the fused VitBit GEMM to the Tensor:CUDA
// column split (the paper fixes m = 4 from its initial study; this sweeps
// the CUDA-core slice and reports where the optimum sits).
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "sim/launcher.h"
#include "trace/gemm_traces.h"
#include "vitbit/tuner.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  trace::GemmShape shape{197, 768, 3072, 1};
  shape.n = static_cast<int>(cli.get_int("n", shape.n));

  const double tc_cycles = static_cast<double>(
      sim::launch_kernel(
          trace::build_gemm_kernel(shape, trace::plan_tc(calib), spec, calib),
          spec, calib)
          .total_cycles);

  Table t("Ablation B — fused-kernel CUDA slice sweep (GEMM " +
          std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
          std::to_string(shape.n) + ")");
  t.header({"cuda cols", "effective m", "B1 cols", "B2 cols", "speedup vs TC"});
  const std::vector<int> col_sweep = {3, 6, 9, 12, 15, 18, 21, 24};
  struct SweptCol {
    trace::GemmBlockPlan plan;
    double cycles = 0.0;
  };
  const auto swept =
      parallel_map(&pool, col_sweep.size(), [&](std::size_t i) {
        const auto plan = trace::plan_vitbit(calib, col_sweep[i]);
        const double cycles = static_cast<double>(
            sim::launch_kernel(
                trace::build_gemm_kernel(shape, plan, spec, calib), spec,
                calib)
                .total_cycles);
        return SweptCol{plan, cycles};
      });
  for (std::size_t i = 0; i < col_sweep.size(); ++i) {
    const auto& plan = swept[i].plan;
    t.row()
        .cell(std::int64_t{col_sweep[i]})
        .cell(static_cast<double>(plan.tc_cols) / col_sweep[i], 1)
        .cell(std::int64_t{plan.int_cols})
        .cell(std::int64_t{plan.fp_cols})
        .cell(tc_cycles / swept[i].cycles, 3);
  }
  bench::emit(t, cli);

  const auto study = core::run_initial_study(shape, spec, calib, &pool);
  std::cout << "\nInitial-study ratios (TC=1): IC "
            << format_fixed(study.ratio_ic(), 2) << ", FC "
            << format_fixed(study.ratio_fc(), 2) << ", IC+FC "
            << format_fixed(study.ratio_icfc(), 2) << ", IC+FC+P "
            << format_fixed(study.ratio_icfcp(), 2) << " -> derived m = "
            << core::derive_m_ratio(study) << " (paper: 4)\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
