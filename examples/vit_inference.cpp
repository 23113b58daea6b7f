// End-to-end demo on the paper's workload class: run an integer-only Vision
// Transformer under every Table-3 execution strategy, check that all of
// them produce bit-identical logits (the accuracy claim), then time the
// full ViT-Base kernel sequence on the simulated Jetson Orin.
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "nn/vit_model.h"
#include "tensor/gemm_ref.h"
#include "vitbit/executors.h"
#include "vitbit/pipeline.h"

namespace {

int run(int argc, char** argv) {
  using namespace vitbit;
  const Cli cli(argc, argv);

  // ---- Functional equivalence on a small ViT (fast to execute) ----
  const auto cfg_model = nn::vit_tiny();
  const auto model = nn::random_vit(cfg_model, /*seed=*/2024);
  Rng rng(7);
  MatrixF32 image(cfg_model.channels * cfg_model.image_size,
                  cfg_model.image_size);
  for (auto& v : image.flat()) v = static_cast<float>(rng.normal());
  const auto patches = nn::extract_patches(image, cfg_model);

  std::cout << "Functional check (vit-tiny, all strategies):\n";
  const auto baseline = model.forward(patches, nn::reference_gemm());
  int top1 = 0;
  for (int c = 1; c < cfg_model.num_classes; ++c)
    if (baseline.at(0, c) > baseline.at(0, top1)) top1 = c;
  for (const auto s : core::all_strategies()) {
    const auto logits = model.forward(patches, core::make_gemm_executor(s));
    const bool same = max_abs_diff(logits, baseline) == 0.0;
    std::cout << "  " << strategy_name(s) << ": logits "
              << (same ? "bit-identical" : "DIFFER") << "\n";
  }
  std::cout << "  predicted class (all strategies): " << top1 << "\n\n";

  // ---- Timing on the full ViT-Base kernel sequence ----
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  const auto log = nn::build_kernel_log(nn::vit_base());
  core::StrategyConfig cfg;

  Table t("ViT-Base inference on simulated Jetson AGX Orin");
  t.header(
      {"method", "time (ms)", "speedup", "Linear (ms)", "CUDA kernels (ms)"});
  double tc = 0;
  for (const auto s : core::figure5_strategies()) {
    const auto r = core::time_inference(log, s, cfg, spec, calib);
    if (tc == 0) tc = static_cast<double>(r.total_cycles);
    t.row()
        .cell(core::strategy_name(s))
        .cell(r.total_ms(spec), 3)
        .cell(tc / static_cast<double>(r.total_cycles), 2)
        .cell(static_cast<double>(r.gemm_cycles) / (spec.clock_ghz * 1e6), 3)
        .cell(static_cast<double>(r.cuda_cycles) / (spec.clock_ghz * 1e6), 3);
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, run);
}
