// Ablation A: the packing policy across bitwidths (paper Figure 3 and the
// "future work" low-bitwidth claim). For each value bitwidth this reports the
// policy layout, the worst-case-exact accumulation budget, the adaptive
// tile length achieved on realistic (Gaussian) weights, the functional MAC
// instruction reduction, and the simulated packed-GEMM speedup over the
// unpacked INT kernel.
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "sim/launcher.h"
#include "swar/packed_gemm.h"
#include "tensor/gemm_ref.h"
#include "trace/gemm_traces.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const int k = static_cast<int>(cli.get_int("k", 768));

  Table t("Ablation A — packing policy vs value bitwidth");
  t.header({"bits", "lanes", "field", "P(worst)", "mean tile", "MAC instrs",
            "exact", "sim speedup"});

  const trace::GemmShape shape{197, k, 3072, 1};
  const auto ic_plan = trace::plan_ic(calib);
  const double ic_cycles = static_cast<double>(
      sim::launch_kernel(trace::build_gemm_kernel(shape, ic_plan, spec, calib),
                         spec, calib)
          .total_cycles);

  const std::vector<int> widths = {2, 3, 4, 5, 6, 7, 8, 9};
  struct Swept {
    swar::LaneLayout layout;
    swar::PackedGemmStats stats;
    bool exact = false;
    double speedup = 1.0;
  };
  // Each width is fully independent: functional check (locally-seeded Rng)
  // plus the simulated packed-GEMM launch.
  const auto swept = parallel_map(&pool, widths.size(), [&](std::size_t i) {
    const int w = widths[i];
    Swept out{swar::paper_policy_layout(w, swar::LaneMode::kTopSigned), {},
              false, 1.0};
    const auto& layout = out.layout;
    // Functional check on Gaussian data at this bitwidth.
    Rng rng(100 + w);
    MatrixI32 a(16, k), b(k, 16);
    const double sigma =
        std::max(1.0, static_cast<double>(layout.scalar_max()) / 8.0);
    fill_gaussian_clipped(a, rng, sigma, layout.scalar_min(),
                          layout.scalar_max());
    fill_uniform(b, rng, layout.value_min(), layout.value_max());
    const auto c = swar::gemm_packed(a, b, layout, {}, &out.stats);
    out.exact = max_abs_diff(c, gemm_ref_int(a, b)) == 0;

    // Timed: packed CUDA GEMM at this packing factor vs unpacked.
    auto packed_plan = trace::plan_ic_fc_packed(calib, layout.num_lanes);
    packed_plan.fp_cols = 0;
    packed_plan.int_cols = calib.cc_tile_n;
    packed_plan.int_warps = 8;
    if (layout.num_lanes > 1) {
      const double packed_cycles = static_cast<double>(
          sim::launch_kernel(
              trace::build_gemm_kernel(shape, packed_plan, spec, calib), spec,
              calib)
              .total_cycles);
      out.speedup = ic_cycles / packed_cycles;
    }
    return out;
  });
  const double unpacked_macs = 16.0 * k * 16;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const auto& s = swept[i];
    t.row()
        .cell(std::int64_t{widths[i]})
        .cell(std::int64_t{s.layout.num_lanes})
        .cell(std::int64_t{s.layout.field_bits})
        .cell(s.layout.worst_case_period())
        .cell(s.stats.mean_tile_length, 1)
        .cell(static_cast<double>(s.stats.mac_instructions) / unpacked_macs, 2)
        .cell(s.exact ? "yes" : "NO")
        .cell(s.speedup, 2);
  }
  bench::emit(t, cli);
  std::cout << "\nMAC instrs column: packed MAC instructions per unpacked MAC"
               " (1/lanes ideal).\nPolicy (Fig. 3): >=9 bits zero-mask; 6-8"
               " bits 2 lanes; 5 bits 3 lanes; <=4 bits 4 lanes.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
