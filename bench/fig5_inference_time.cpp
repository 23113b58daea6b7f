// Reproduces Figure 5: end-to-end ViT-Base inference time under the
// simultaneous-execution methods, normalized to the TC baseline.
// Paper: TC 1.00x, Tacker 1.06x, TC+IC+FC 1.11x, VitBit 1.22x.
#include <iostream>

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
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const auto log = nn::build_kernel_log(nn::vit_base());
  core::StrategyConfig cfg;
  cfg.m_ratio = static_cast<int>(cli.get_int("m", cfg.m_ratio));

  const auto strategies = core::figure5_strategies();
  const auto results = core::time_inferences(
      core::strategy_jobs(log, strategies, cfg), spec, calib, &pool);

  const double paper[] = {1.00, 1.06, 1.11, 1.22};
  Table t("Figure 5 — ViT-Base inference time (normalized to TC)");
  t.header({"method", "time (ms)", "model speedup", "paper speedup"});
  const double tc_cycles = static_cast<double>(results[0].total_cycles);
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const auto& r = results[i];
    t.row()
        .cell(core::strategy_name(strategies[i]))
        .cell(r.total_ms(spec), 3)
        .cell(tc_cycles / static_cast<double>(r.total_cycles), 2)
        .cell(paper[i], 2);
  }
  bench::emit(t, cli);
  std::cout << "\nWorkload: integer-only quantized ViT-Base (197x768, 12\n"
               "layers), kernel sequence from nn::build_kernel_log.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
