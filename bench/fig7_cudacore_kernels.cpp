// Reproduces Figure 7: CUDA-core kernel (softmax, GeLU, LayerNorm, dropout,
// residual add) speedups, normalized to the IC baseline.
// Paper: IC+FC 1.05x average; VitBit 1.14x average, 1.18x maximum.
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

  const core::Strategy strategies[] = {
      core::Strategy::kIC, core::Strategy::kFC, core::Strategy::kICFC,
      core::Strategy::kVitBit};
  const auto timings = core::time_inferences(
      core::strategy_jobs(log, strategies, cfg), spec, calib, &pool);
  const auto& ic = timings[0];
  const auto& fc = timings[1];
  const auto& icfc = timings[2];
  const auto& vb = timings[3];

  Table t("Figure 7 — CUDA-core kernel speedup vs IC");
  t.header({"kernel", "IC cycles", "FC", "IC+FC", "VitBit"});
  double sum_icfc = 0, sum_vb = 0, max_vb = 0;
  int count = 0;
  for (std::size_t i = 0; i < log.calls().size(); ++i) {
    const auto& call = log.calls()[i];
    if (call.kind == nn::KernelKind::kGemm) continue;
    if (call.name.rfind("layer0", 0) != 0) continue;  // layers identical
    const double base = static_cast<double>(ic.kernels[i].cycles);
    const double s_fc = base / static_cast<double>(fc.kernels[i].cycles);
    const double s_icfc = base / static_cast<double>(icfc.kernels[i].cycles);
    const double s_vb = base / static_cast<double>(vb.kernels[i].cycles);
    t.row()
        .cell(call.name)
        .cell(ic.kernels[i].cycles)
        .cell(s_fc, 2)
        .cell(s_icfc, 2)
        .cell(s_vb, 2);
    sum_icfc += s_icfc;
    sum_vb += s_vb;
    max_vb = std::max(max_vb, s_vb);
    ++count;
  }
  bench::emit(t, cli);
  std::cout << "\nmodel: IC+FC average " << format_fixed(sum_icfc / count, 2)
            << "x; VitBit average " << format_fixed(sum_vb / count, 2)
            << "x, max " << format_fixed(max_vb, 2)
            << "x   (paper: IC+FC 1.05x; VitBit 1.14x avg, 1.18x max)\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
