// Reproduces Figure 9: instruction count per ViT-Base layer, VitBit
// normalized to IC+FC, over the kernels both methods execute on CUDA cores
// (packing multiple values per IMAD is what shrinks the count).
// Paper: VitBit reduces the instruction count by up to 1.5x.
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
  const core::StrategyConfig cfg;

  const core::Strategy strategies[] = {core::Strategy::kICFC,
                                       core::Strategy::kVitBit};
  const auto timings = core::time_inferences(
      core::strategy_jobs(log, strategies, cfg), spec, calib, &pool);
  const auto& icfc = timings[0];
  const auto& vb = timings[1];

  Table t("Figure 9 — CUDA-core instruction count per kernel (layer 0)");
  t.header({"kernel", "IC+FC instrs", "VitBit instrs", "reduction"});
  std::uint64_t total_icfc = 0, total_vb = 0;
  double best = 0;
  for (std::size_t i = 0; i < log.calls().size(); ++i) {
    const auto& call = log.calls()[i];
    if (call.kind == nn::KernelKind::kGemm) continue;
    if (call.name.rfind("layer0", 0) != 0) continue;
    const auto a = icfc.kernels[i].instructions;
    const auto b = vb.kernels[i].instructions;
    total_icfc += a;
    total_vb += b;
    const double red = static_cast<double>(a) / static_cast<double>(b);
    best = std::max(best, red);
    t.row().cell(call.name).cell(a).cell(b).cell(red, 2);
  }
  bench::emit(t, cli);
  std::cout << "\nper-layer total: " << total_icfc << " -> " << total_vb
            << " = "
            << format_fixed(static_cast<double>(total_icfc) /
                                static_cast<double>(total_vb),
                            2)
            << "x fewer; best kernel " << format_fixed(best, 2)
            << "x   (paper: up to 1.5x)\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
