// Builds the paper's Algorithm-2 fused GEMM kernel — tensor-core, INT, and
// FP warps in one thread block — runs it on the simulated SM, and shows the
// per-unit utilization that motivates "arithmetic density".
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "sim/launcher.h"
#include "trace/gemm_traces.h"

namespace {

int run(int argc, char** argv) {
  using namespace vitbit;
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();

  trace::GemmShape shape;
  shape.m = static_cast<int>(cli.get_int("m", 197));
  shape.k = static_cast<int>(cli.get_int("k", 768));
  shape.n = static_cast<int>(cli.get_int("n", 3072));
  const int cuda_cols = static_cast<int>(cli.get_int("cuda-cols", 12));

  Table t("Fused-kernel anatomy — GEMM " + std::to_string(shape.m) + "x" +
          std::to_string(shape.k) + "x" + std::to_string(shape.n));
  t.header({"method", "cycles", "TC util", "INT util", "FP util", "LSU util",
            "IPC"});
  auto report = [&](const char* name, const trace::GemmBlockPlan& plan) {
    const auto kernel = trace::build_gemm_kernel(shape, plan, spec, calib);
    const auto r = sim::launch_kernel(kernel, spec, calib);
    t.row()
        .cell(name)
        .cell(r.total_cycles)
        .cell(r.sm.utilization(sim::ExecUnit::kTensor, spec.subcores_per_sm), 2)
        .cell(r.sm.utilization(sim::ExecUnit::kIntPipe, spec.subcores_per_sm),
              2)
        .cell(r.sm.utilization(sim::ExecUnit::kFpPipe, spec.subcores_per_sm), 2)
        .cell(r.sm.utilization(sim::ExecUnit::kLsu, 1), 2)
        .cell(r.sm.ipc(), 2);
    return r.total_cycles;
  };

  const auto tc = report("TC only", trace::plan_tc(calib));
  report("Tacker", trace::plan_tacker(calib, cuda_cols / 2));
  report("TC+IC+FC", trace::plan_tc_ic_fc(calib, cuda_cols));
  const auto vb = report("VitBit", trace::plan_vitbit(calib, cuda_cols));
  t.print(std::cout);

  std::cout << "\nVitBit speedup over TC-only: "
            << format_fixed(static_cast<double>(tc) / static_cast<double>(vb),
                            2)
            << "x — idle INT/FP pipes absorb the CUDA column slices while\n"
               "the tensor cores keep their own slice (warp-level"
               " co-scheduling).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, run);
}
