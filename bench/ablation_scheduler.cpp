// Ablation D: warp-scheduler policy. Compares loose round-robin (fair)
// against greedy-then-oldest (stick with the issuing warp) on the Table-3
// GEMM kernels — co-scheduled heterogeneous warps are sensitive to the
// policy because a greedy scheduler can starve the warps feeding the other
// unit classes.
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "sim/launcher.h"
#include "trace/gemm_traces.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  auto pool = bench::make_pool(cli);
  const arch::OrinSpec spec;
  arch::Calibration lrr = arch::default_calibration();
  lrr.greedy_scheduler = false;
  arch::Calibration gto = lrr;
  gto.greedy_scheduler = true;

  const trace::GemmShape shape = bench::study_shape();
  struct Row {
    const char* name;
    trace::GemmBlockPlan plan;
  };
  const std::vector<Row> rows = {
      {"TC", trace::plan_tc(lrr)},
      {"IC", trace::plan_ic(lrr)},
      {"IC+FC", trace::plan_ic_fc(lrr)},
      {"VitBit (fused)", trace::plan_vitbit(lrr, 12)},
  };

  Table t("Ablation D — warp scheduler policy (GEMM " +
          std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
          std::to_string(shape.n) + ")");
  t.header({"kernel", "round-robin (cycles)", "greedy (cycles)",
            "greedy/rr"});
  // Flatten (kernel, policy) into one task list: even index = round-robin,
  // odd = greedy.
  const auto launched =
      parallel_map(&pool, rows.size() * 2, [&](std::size_t i) {
        const auto& c = i % 2 == 0 ? lrr : gto;
        return sim::launch_kernel(
            trace::build_gemm_kernel(shape, rows[i / 2].plan, spec, c), spec,
            c);
      });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& a = launched[2 * i];
    const auto& b = launched[2 * i + 1];
    t.row()
        .cell(rows[i].name)
        .cell(a.total_cycles)
        .cell(b.total_cycles)
        .cell(static_cast<double>(b.total_cycles) /
                  static_cast<double>(a.total_cycles),
              3);
  }
  bench::emit(t, cli);
  std::cout << "\nFused kernels prefer fairness: greedy issue lets one\n"
               "warp's long stream monopolize the port while the tensor\n"
               "core starves between its feeder warps.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
