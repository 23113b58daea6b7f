// Reproduces Figure 8: arithmetic density (ops/s/mm^2) while inferring
// ViT-Base, normalized to TC. The useful-operation count is fixed by the
// workload and the die area is fixed by the hardware, so density ratios are
// inverse time ratios over the operation-bearing (Linear) kernels.
// Paper: Tacker 1.11x, TC+IC+FC 1.17x, VitBit 1.28x.
#include <iostream>

#include "arch/area_model.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "nn/vit_model.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const arch::AreaModel area;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const auto log = nn::build_kernel_log(nn::vit_base());
  const core::StrategyConfig cfg;

  const auto strategies = core::figure5_strategies();
  const auto results = core::time_inferences(
      core::strategy_jobs(log, strategies, cfg), spec, calib, &pool);

  const double paper[] = {1.00, 1.11, 1.17, 1.28};
  Table t("Figure 8 — arithmetic density during ViT-Base inference");
  t.header({"method", "GEMM ops/cycle", "TOPS/mm^2", "model norm",
            "paper norm"});
  double base_density = 0.0;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const double ops_per_cycle = results[i].gemm_ops_per_cycle(log);
    const double ops_per_sec = ops_per_cycle * spec.clock_ghz * 1e9;
    const double density = arch::arithmetic_density(spec, area, ops_per_sec);
    if (base_density == 0.0) base_density = density;
    t.row()
        .cell(core::strategy_name(strategies[i]))
        .cell(ops_per_cycle, 1)
        .cell(density, 3)
        .cell(density / base_density, 2)
        .cell(paper[i], 2);
  }
  bench::emit(t, cli);
  std::cout << "\nDie area model: " << format_fixed(area.gpu_total_mm2(spec), 1)
            << " mm^2 GPU (coarse 8nm Ampere estimate; only ratios matter).\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
