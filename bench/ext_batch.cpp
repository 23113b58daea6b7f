// Extension bench: batched ViT-Base inference. Larger batches enlarge the
// GEMMs (more blocks, better GPU fill); this sweeps the batch size and
// reports throughput and VitBit's advantage at each point. Latencies come
// from the same memoized per-batch-size table builder the serving tiers
// and the model registry use (serve/server.h), so the bench and the
// simulators can never disagree about what a batch costs.
#include <cstdint>
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "nn/vit_model.h"
#include "serve/server.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const core::StrategyConfig cfg;

  Table t("Extension — batch-size sweep, ViT-Base");
  t.header({"batch", "TC (ms)", "VitBit (ms)", "VitBit speedup",
            "TC img/s", "VitBit img/s"});
  const std::vector<int> batches = {1, 2, 4, 8, 16, 32};
  // One shared builder call covers both strategies at every batch size
  // up to the sweep's largest, fanned out over the pool.
  const auto model = nn::vit_base();
  const auto tables = serve::build_latency_tables(
      model, {core::Strategy::kTC, core::Strategy::kVitBit}, cfg, spec, calib,
      batches.back(), &pool);
  const auto& tc = tables[0];
  const auto& vb = tables[1];
  for (const int batch : batches) {
    const auto tc_us = tc.latency_us(batch);
    const auto vb_us = vb.latency_us(batch);
    t.row()
        .cell(std::int64_t{batch})
        .cell(tc_us / 1000.0, 3)
        .cell(vb_us / 1000.0, 3)
        .cell(static_cast<double>(tc_us) / static_cast<double>(vb_us), 2)
        .cell(1e6 * batch / static_cast<double>(tc_us), 1)
        .cell(1e6 * batch / static_cast<double>(vb_us), 1);
  }
  bench::emit(t, cli);
  std::cout << "\nBatching amortizes kernel-launch overhead and fills the\n"
               "grid; VitBit's co-scheduling gain persists across batch\n"
               "sizes (the paper evaluates batch 1 only).\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
