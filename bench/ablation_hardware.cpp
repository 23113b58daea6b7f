// Ablation E: hardware sensitivity. The Orin family spans very different
// configurations (AGX: 14 SMs / 204.8 GB/s; NX-class parts: fewer SMs and
// narrower memory); this sweeps SM count and DRAM bandwidth and reports
// where VitBit's co-scheduling gain goes.
#include <iostream>

#include <algorithm>
#include <iterator>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "sim/launcher.h"
#include "trace/gemm_traces.h"

namespace vitbit {
namespace {

double cycles(const trace::GemmShape& shape, const trace::GemmBlockPlan& plan,
              const arch::OrinSpec& spec, const arch::Calibration& calib) {
  return static_cast<double>(
      sim::launch_kernel(trace::build_gemm_kernel(shape, plan, spec, calib),
                         spec, calib)
          .total_cycles);
}

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const trace::GemmShape shape = bench::study_shape();

  Table t("Ablation E — GPU configuration sweep (GEMM " +
          std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
          std::to_string(shape.n) + ")");
  t.header({"config", "SMs", "DRAM (GB/s)", "TC (cycles)",
            "VitBit (fixed slice)", "VitBit (tuned)", "IC/TC ratio"});

  struct Hw {
    const char* name;
    int sms;
    double gbps;
  };
  const Hw configs[] = {
      {"Orin NX-class", 8, 102.4},   {"AGX, half BW", 14, 102.4},
      {"AGX Orin (paper)", 14, 204.8}, {"AGX, double BW", 14, 409.6},
      {"scaled-up part", 28, 409.6},
  };
  struct Swept {
    double tc, ic, vb_fixed, vb_best;
  };
  // One task per GPU configuration; each runs its own nine launches.
  const auto swept =
      parallel_map(&pool, std::size(configs), [&](std::size_t i) {
        arch::OrinSpec spec;
        spec.num_sms = configs[i].sms;
        spec.dram_bandwidth_gbps = configs[i].gbps;
        Swept out{};
        out.tc = cycles(shape, trace::plan_tc(calib), spec, calib);
        out.ic = cycles(shape, trace::plan_ic(calib), spec, calib);
        out.vb_fixed = cycles(shape, trace::plan_vitbit(calib, 12), spec,
                              calib);
        // Per-device tuning, as VitBit's setup phase does (0 = fall back to
        // TC).
        out.vb_best = out.tc;
        for (const int cols : {3, 6, 9, 12, 15, 18})
          out.vb_best = std::min(
              out.vb_best,
              cycles(shape, trace::plan_vitbit(calib, cols), spec, calib));
        return out;
      });
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    const auto& s = swept[i];
    t.row()
        .cell(configs[i].name)
        .cell(std::int64_t{configs[i].sms})
        .cell(configs[i].gbps, 1)
        .cell(static_cast<std::int64_t>(s.tc))
        .cell(s.tc / s.vb_fixed, 2)
        .cell(s.tc / s.vb_best, 2)
        .cell(s.ic / s.tc, 1);
  }
  bench::emit(t, cli);
  std::cout << "\nNarrow memory pushes the tensor-core baseline toward the\n"
               "bandwidth wall, where adding CUDA-core compute cannot help;\n"
               "ample bandwidth restores the co-scheduling gain. The m ratio\n"
               "(IC/TC column) a deployment derives therefore depends on the\n"
               "part, which is why VitBit measures it per device.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
