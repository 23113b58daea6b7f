// Extension bench: energy per inference. The paper motivates VitBit with
// embedded-GPU energy efficiency (Section 1) but reports only time; this
// bench applies the event-level energy model to the same kernel timings and
// reports energy/inference and efficiency (inferences per joule).
#include <iostream>

#include "arch/energy_model.h"
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

  const auto strategies = core::figure5_strategies();
  const auto results = core::time_inferences(
      core::strategy_jobs(log, strategies, cfg), spec, calib, &pool);

  Table t("Extension — energy per ViT-Base inference");
  t.header({"method", "time (ms)", "energy (mJ)", "avg power (W)",
            "EDP (mJ*ms)", "energy vs TC"});
  const double base_energy = results[0].total_energy_mj;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const auto& r = results[i];
    const double ms = r.total_ms(spec);
    const double mj = r.total_energy_mj;
    t.row()
        .cell(core::strategy_name(strategies[i]))
        .cell(ms, 3)
        .cell(mj, 2)
        .cell(mj / ms, 2)
        .cell(mj * ms, 1)
        .cell(base_energy / mj, 3);
  }
  bench::emit(t, cli);
  std::cout <<
      "\nModel finding: simultaneous execution raises instantaneous power\n"
      "(every unit class active, ~3.7x the instruction count) faster than\n"
      "the shorter runtime saves static energy, so VitBit trades energy for\n"
      "latency on this model. The paper claims speedup and arithmetic\n"
      "density, not energy reduction — this quantifies the power cost of\n"
      "that density and is worth measuring on real hardware (DVFS may\n"
      "throttle it further under tight power caps).\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
