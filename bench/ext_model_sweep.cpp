// Extension bench: does VitBit's advantage scale with model size? Sweeps
// ViT-Small / Base / Large (the paper evaluates Base only).
#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "nn/cnn.h"
#include "nn/mixer.h"
#include "nn/vit_model.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const core::StrategyConfig cfg;

  const std::vector<std::pair<const char*, nn::KernelLog>> models = {
      {"ViT-Small", nn::build_kernel_log(nn::vit_small())},
      {"ViT-Base", nn::build_kernel_log(nn::vit_base())},
      {"ViT-Large", nn::build_kernel_log(nn::vit_large())},
      {"MLP-Mixer-S", nn::build_mixer_kernel_log(nn::mixer_small())},
      {"edge CNN", nn::build_cnn_kernel_log(nn::cnn_edge())},
  };
  // One job per (model, strategy): [TC, VitBit] per model.
  std::vector<core::InferenceJob> jobs;
  for (const auto& model : models)
    for (const auto s : {core::Strategy::kTC, core::Strategy::kVitBit})
      jobs.push_back({&model.second, s, cfg});
  const auto timings = core::time_inferences(jobs, spec, calib, &pool);

  Table t("Extension — workload sweep (VitBit vs TC)");
  t.header({"model", "GMACs", "TC (ms)", "VitBit (ms)", "speedup"});
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto& tc = timings[2 * i];
    const auto& vb = timings[2 * i + 1];
    t.row()
        .cell(models[i].first)
        .cell(static_cast<double>(models[i].second.total_macs()) / 1e9, 1)
        .cell(tc.total_ms(spec), 3)
        .cell(vb.total_ms(spec), 3)
        .cell(static_cast<double>(tc.total_cycles) /
                  static_cast<double>(vb.total_cycles),
              2);
  }
  bench::emit(t, cli);
  std::cout << "\nLarger and GEMM-denser models spend more of their time in\n"
               "wide GEMMs, where the fused kernel's gain is highest.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
