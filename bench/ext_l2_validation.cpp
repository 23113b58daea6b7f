// Extension bench: validates the calibrated single-SM model's static L2
// derates against a full multi-SM simulation with an addressed, shared,
// set-associative 4MB L2 (sim/gpu_sim.h). The two models should agree on
// orderings and rough factors; the L2 columns also report measured hit
// rates, the quantity the derates stand in for.
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "sim/gpu_sim.h"
#include "sim/launcher.h"
#include "trace/gemm_traces.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  trace::GemmShape shape{197, 768, 3072, 1};
  shape.n = static_cast<int>(cli.get_int("n", shape.n));

  struct Row {
    const char* name;
    trace::GemmBlockPlan plan;
  };
  const std::vector<Row> rows = {
      {"TC", trace::plan_tc(calib)},
      {"IC", trace::plan_ic(calib)},
      {"IC+FC+P", trace::plan_ic_fc_packed(calib)},
      {"VitBit", trace::plan_vitbit(calib, 12)},
  };

  Table t("Extension — derate model vs full multi-SM L2 simulation (GEMM " +
          std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
          std::to_string(shape.n) + ")");
  t.header({"kernel", "derate model (cyc)", "L2 model (cyc)", "L2/derate",
            "L2 hit rate"});
  struct Swept {
    std::uint64_t derate_cycles = 0, l2_cycles = 0;
    double l2_hit_rate = 0.0;
  };
  // Each row runs the derate model, the L2-derate launcher, and a full
  // multi-SM simulation — all independent across rows.
  const auto swept = parallel_map(&pool, rows.size(), [&](std::size_t i) {
    const auto kernel =
        trace::build_gemm_kernel(shape, rows[i].plan, spec, calib);
    const auto geom = trace::gemm_grid_geom(shape, rows[i].plan, spec);
    Swept out;
    out.derate_cycles = sim::launch_kernel(kernel, spec, calib).total_cycles;
    out.l2_cycles =
        sim::launch_kernel_l2(kernel, geom, spec, calib).total_cycles;
    sim::GpuSim gpu(spec, calib);
    out.l2_hit_rate =
        gpu.run(kernel, geom, sim::occupancy_blocks_per_sm(kernel, spec))
            .l2_hit_rate;
    return out;
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& s = swept[i];
    t.row()
        .cell(rows[i].name)
        .cell(s.derate_cycles)
        .cell(s.l2_cycles)
        .cell(static_cast<double>(s.l2_cycles) /
                  static_cast<double>(s.derate_cycles),
              2)
        .cell(s.l2_hit_rate, 3);
  }
  bench::emit(t, cli);
  std::cout << "\nBoth models must order the kernels identically; the"
               " absolute\ngap quantifies what the static derates"
               " (a_operand_l2_derate = "
            << calib.a_operand_l2_derate
            << ",\nb = " << calib.b_operand_l2_derate
            << ") abstract away.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
