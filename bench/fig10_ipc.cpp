// Reproduces Figure 10: average instructions-per-cycle of the ViT-Base
// CUDA-core kernels. Using both INT and FP pipes raises IPC because the
// sub-core scheduler can issue to two independent units.
// Paper: ~1.3x higher IPC with both pipes than with either alone.
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "nn/vit_model.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

// Cycle-weighted mean IPC over the CUDA-core kernels only.
double cuda_kernel_ipc(const core::InferenceTiming& t) {
  double weighted = 0;
  std::uint64_t cycles = 0;
  for (const auto& k : t.kernels) {
    if (k.kind == nn::KernelKind::kGemm) continue;
    weighted += k.ipc * static_cast<double>(k.cycles);
    cycles += k.cycles;
  }
  return cycles == 0 ? 0.0 : weighted / static_cast<double>(cycles);
}

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const auto log = nn::build_kernel_log(nn::vit_base());
  const core::StrategyConfig cfg;

  const auto strategies = core::figure7_strategies();
  const auto results = core::time_inferences(
      core::strategy_jobs(log, strategies, cfg), spec, calib, &pool);

  // The paper's Figure 10 measures average IPC over whole-layer execution
  // per method: a single-pipe method (IC or FC) is capped by one pipe's
  // dispatch rate, while IC+FC dual-issues across both.
  Table t("Figure 10 — average IPC while inferring ViT-Base");
  t.header({"method", "overall IPC", "CUDA-kernel IPC", "vs IC (overall)"});
  double base = 0.0;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const auto& r = results[i];
    const double ipc = r.mean_ipc();
    if (base == 0.0) base = ipc;
    t.row()
        .cell(core::strategy_name(strategies[i]))
        .cell(ipc, 2)
        .cell(cuda_kernel_ipc(r), 2)
        .cell(ipc / base, 2);
  }
  bench::emit(t, cli);
  std::cout << "\npaper: both pipes together reach ~1.3x the IPC of a single"
               " pipe.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
