// Ablation C: accumulation-tile length (spill period) for packed INT8 GEMM.
// The paper assumes the reserved product space suffices; this quantifies
// the exactness/performance trade-off the DESIGN.md analysis derives:
// longer tiles amortize spill instructions but risk lane overflow on
// adversarial data, while adaptive tiles are provably exact.
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
  const auto layout = swar::paper_policy_layout(8, swar::LaneMode::kTopSigned);

  // Functional: overflow rates on realistic vs adversarial data.
  Rng rng(7);
  MatrixI32 a_real(16, k), b_real(k, 16), a_adv(16, k), b_adv(k, 16);
  fill_gaussian_clipped(a_real, rng, 14.0, -127, 127);
  fill_uniform(b_real, rng, -128, 127);
  fill_uniform(a_adv, rng, -127, 127);  // uniform full-range: adversarial
  fill_uniform(b_adv, rng, -128, 127);

  const trace::GemmShape shape{197, k, 3072, 1};
  const double ic_cycles = static_cast<double>(
      sim::launch_kernel(
          trace::build_gemm_kernel(shape, trace::plan_ic(calib), spec, calib),
          spec, calib)
          .total_cycles);

  Table t("Ablation C — packed INT8 accumulation-tile length");
  t.header({"K_tile", "overflow% (gauss)", "overflow% (uniform)",
            "spill ops/MAC", "sim speedup vs IC"});
  const std::vector<int> periods = {2, 4, 8, 16, 32, 64, 128};
  struct Swept {
    swar::PackedGemmStats real, adversarial;
    double cycles = 0.0;
  };
  const auto swept = parallel_map(&pool, periods.size(), [&](std::size_t i) {
    const int period = periods[i];
    swar::PackedGemmOptions opt;
    opt.tile.mode = swar::TileMode::kFixedPeriod;
    opt.tile.fixed_period = period;
    Swept out;
    swar::gemm_packed(a_real, swar::PackedMatrix(b_real, layout), opt,
                      &out.real);
    swar::gemm_packed(a_adv, swar::PackedMatrix(b_adv, layout), opt,
                      &out.adversarial);

    auto plan = trace::plan_ic(calib);
    plan.pack_int = true;
    plan.pack_factor = 2;
    plan.pack_k_tile = period;
    plan.pack_spill_ops = calib.packed_spill_ops;
    out.cycles = static_cast<double>(
        sim::launch_kernel(trace::build_gemm_kernel(shape, plan, spec, calib),
                           spec, calib)
            .total_cycles);
    return out;
  });
  for (std::size_t i = 0; i < periods.size(); ++i) {
    const auto& s = swept[i];
    t.row()
        .cell(std::int64_t{periods[i]})
        .cell(100.0 * static_cast<double>(s.real.overflow_tiles) /
                  static_cast<double>(s.real.total_tiles),
              2)
        .cell(100.0 * static_cast<double>(s.adversarial.overflow_tiles) /
                  static_cast<double>(s.adversarial.total_tiles),
              2)
        .cell(static_cast<double>(calib.packed_spill_ops) / periods[i], 3)
        .cell(ic_cycles / s.cycles, 2);
  }
  bench::emit(t, cli);

  // Adaptive (guaranteed-exact) reference row.
  swar::PackedGemmStats ad;
  swar::gemm_packed(a_real, swar::PackedMatrix(b_real, layout), {}, &ad);
  std::cout << "\nadaptive tiles on Gaussian weights: mean length "
            << format_fixed(ad.mean_tile_length, 1)
            << ", overflow tiles: " << ad.overflow_tiles
            << " (exact by construction)\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
