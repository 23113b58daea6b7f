// Ablation: register-file compression (Angerd et al.-style static
// compression of the architectural RF) crossed with VitBit operand packing.
// Both knobs attack the same resource — register pressure — from opposite
// ends: packing shrinks regs_per_thread at trace-generation time, RF
// compression grows the effective per-SM register budget at occupancy time.
// The sweep shows where each knob moves the occupancy limiter and where the
// two saturate each other (once blocks/SM is warp- or smem-limited, more
// register headroom buys nothing).
//
//   ablation_rf_compress [--ratios=1.0,1.25,1.5,2.0] [--packs=1,2,3,4]
//                        [--overhead=0.0] [--cuda-cols=12]
//                        [--threads=N] [--csv] [--json=PATH]
//
// --packs=1 means the unpacked TC+IC+FC fusion; packs >= 2 are VitBit plans
// with that packing factor. --overhead is the compression metadata fraction
// carved out of the RF before the ratio is applied (rf_compress.h).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "sim/launcher.h"
#include "trace/gemm_traces.h"

namespace vitbit {
namespace {

std::vector<double> parse_double_list(const char* flag, const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    VITBIT_CHECK_MSG(!tok.empty() && end && *end == '\0' && std::isfinite(v),
                     "flag --" << flag << ": bad list element '" << tok
                               << "' in '" << s << "'");
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  VITBIT_CHECK_MSG(!out.empty(), "flag --" << flag << " must be non-empty");
  return out;
}

std::vector<int> parse_int_list(const char* flag, const std::string& s) {
  std::vector<int> out;
  for (const double v : parse_double_list(flag, s)) {
    VITBIT_CHECK_MSG(v == std::floor(v) && v >= 1 && v <= 8,
                     "flag --" << flag << ": expected integers in [1,8], got "
                               << v);
    out.push_back(static_cast<int>(v));
  }
  return out;
}

struct SweptPoint {
  sim::OccupancyLimits limits;
  std::uint64_t cycles = 0;
};

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const auto ratios = parse_double_list(
      "ratios", cli.get("ratios", "1.0,1.25,1.5,2.0"));
  const auto packs = parse_int_list("packs", cli.get("packs", "1,2,3,4"));
  const double overhead = cli.get_double("overhead", 0.0);
  const int cuda_cols = static_cast<int>(cli.get_int("cuda-cols", 12));
  (void)cli.json_path();
  (void)cli.get_bool("csv", false);
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "ablation_rf_compress: unknown flag --" << typos.front()
              << "\n";
    return 2;
  }

  const trace::GemmShape shape = bench::study_shape();
  std::vector<trace::GemmBlockPlan> plans;
  plans.reserve(packs.size());
  for (const int pack : packs)
    plans.push_back(pack == 1 ? trace::plan_tc_ic_fc(calib, cuda_cols)
                              : trace::plan_vitbit(calib, cuda_cols, pack));
  std::vector<sim::KernelSpec> kernels;
  kernels.reserve(plans.size());
  for (const auto& plan : plans)
    kernels.push_back(trace::build_gemm_kernel(shape, plan, spec, calib));

  // Baseline: unpacked fusion with the RF model disabled.
  const std::uint64_t base_cycles =
      sim::launch_kernel(
          trace::build_gemm_kernel(
              shape, trace::plan_tc_ic_fc(calib, cuda_cols), spec, calib),
          spec, calib)
          .total_cycles;

  const std::size_t combos = packs.size() * ratios.size();
  const auto swept = parallel_map(&pool, combos, [&](std::size_t i) {
    const std::size_t pi = i / ratios.size();
    const arch::RfCompressConfig rf{ratios[i % ratios.size()], overhead};
    SweptPoint p;
    p.limits = sim::occupancy_limits(kernels[pi], spec, rf);
    p.cycles =
        sim::launch_kernel(kernels[pi], spec, calib, rf).total_cycles;
    return p;
  });

  Table t("RF compression x operand packing (GEMM " +
          std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
          std::to_string(shape.n) + ", overhead " +
          format_fixed(overhead, 2) + ")");
  t.header({"pack", "ratio", "regs/thread", "eff regs/SM", "blocks/SM",
            "limiter", "cycles", "speedup vs TC+IC+FC"});
  for (std::size_t i = 0; i < combos; ++i) {
    const std::size_t pi = i / ratios.size();
    const auto& p = swept[i];
    t.row()
        .cell(packs[pi] == 1 ? std::string("none")
                             : "x" + std::to_string(packs[pi]))
        .cell(ratios[i % ratios.size()], 2)
        .cell(std::int64_t{kernels[pi].regs_per_thread})
        .cell(std::int64_t{p.limits.effective_registers})
        .cell(std::int64_t{p.limits.blocks})
        .cell(p.limits.limiter)
        .cell(static_cast<std::int64_t>(p.cycles))
        .cell(static_cast<double>(base_cycles) / p.cycles, 3);
  }
  bench::emit(t, cli);
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
