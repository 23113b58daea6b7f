// Reproduces Figure 6: per-kernel speedup of the Tensor-core ("Linear")
// kernels of ViT-Base under VitBit, normalized to TC.
// Paper: average 1.28x, maximum 1.35x.
#include <iostream>
#include <map>

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

  const core::Strategy strategies[] = {core::Strategy::kTC,
                                       core::Strategy::kVitBit};
  const auto timings = core::time_inferences(
      core::strategy_jobs(log, strategies, cfg), spec, calib, &pool);
  const auto& tc = timings[0];
  const auto& vb = timings[1];

  // One row per distinct layer-0 GEMM kernel (all layers are identical).
  Table t("Figure 6 — Linear (GEMM) kernel speedup, VitBit vs TC");
  t.header({"kernel", "TC cycles", "VitBit cycles", "speedup"});
  double sum = 0, worst = 0;
  int count = 0;
  for (std::size_t i = 0; i < log.calls().size(); ++i) {
    const auto& call = log.calls()[i];
    if (call.kind != nn::KernelKind::kGemm) continue;
    if (call.name.rfind("layer0", 0) != 0 && call.name != "patch_embed" &&
        call.name != "head")
      continue;
    const double s = static_cast<double>(tc.kernels[i].cycles) /
                     static_cast<double>(vb.kernels[i].cycles);
    t.row()
        .cell(call.name)
        .cell(tc.kernels[i].cycles)
        .cell(vb.kernels[i].cycles)
        .cell(s, 2);
    sum += s;
    worst = std::max(worst, s);
    ++count;
  }
  bench::emit(t, cli);
  std::cout << "\nmodel: average " << format_fixed(sum / count, 2) << "x, max "
            << format_fixed(worst, 2)
            << "x   (paper: average 1.28x, max 1.35x)\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
