// Extension bench: VitBit on a second workload class — an integer CNN whose
// convolutions run as im2col GEMMs. Shows the simultaneous-execution
// methods generalize beyond the paper's ViT-Base evaluation.
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "nn/cnn.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const auto log = nn::build_cnn_kernel_log(nn::cnn_edge());
  const core::StrategyConfig cfg;

  const auto strategies = core::figure5_strategies();
  const auto results = core::time_inferences(
      core::strategy_jobs(log, strategies, cfg), spec, calib, &pool);

  Table t("Extension — edge-CNN inference (224x224 input, 8 convs)");
  t.header({"method", "time (ms)", "speedup vs TC", "conv GEMM (ms)",
            "elementwise (ms)"});
  const double tc = static_cast<double>(results[0].total_cycles);
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const auto& r = results[i];
    t.row()
        .cell(core::strategy_name(strategies[i]))
        .cell(r.total_ms(spec), 3)
        .cell(tc / static_cast<double>(r.total_cycles), 2)
        .cell(static_cast<double>(r.gemm_cycles) / (spec.clock_ghz * 1e6), 3)
        .cell(static_cast<double>(r.cuda_cycles) / (spec.clock_ghz * 1e6), 3);
  }
  bench::emit(t, cli);
  std::cout << "\nConvolutions execute as im2col GEMMs; the same B1/B2/B3\n"
               "column split applies, so VitBit's packing and co-scheduling\n"
               "carry over from the transformer to convolutional workloads.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
