#include "replay.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <filesystem>
#include <utility>

#include "sim/launcher.h"
#include "swar/layout.h"
#include "swar/packed_gemm.h"
#include "tensor/gemm_dispatch.h"
#include "trace/elementwise_traces.h"
#include "trace/gemm_traces.h"
#include "vitbit/fused_gemm.h"
#include "vitbit/preprocess.h"

namespace bench {

namespace {

namespace report = vitbit::report;
namespace sim = vitbit::sim;
namespace swar = vitbit::swar;
namespace trace = vitbit::trace;

// Generated GEMM operands stop once their products reach this many MACs,
// which keeps the functional replay near a second on any workload.
constexpr double kGemmReplayMacs = 6e8;

// Runs `fn` under a span and adds its wall time to `acc_s`.
template <typename Fn>
auto timed(const char* layer, const char* name, const char* label,
           double& acc_s, Fn&& fn) {
  const ScopedSpan span(layer, name, label);
  const double t0 = now_us();
  auto result = fn();
  acc_s += (now_us() - t0) * 1e-6;
  return result;
}

// The strategy's GEMM plan before auto-tuning (the public trace::plan_*).
trace::GemmBlockPlan untuned_plan(core::Strategy s,
                                  const core::StrategyConfig& cfg,
                                  const arch::Calibration& calib) {
  switch (s) {
    case core::Strategy::kTC:
      return trace::plan_tc(calib);
    case core::Strategy::kIC:
      return trace::plan_ic(calib);
    case core::Strategy::kFC:
      return trace::plan_fc(calib);
    case core::Strategy::kICFC:
      return trace::plan_ic_fc(calib);
    case core::Strategy::kTacker:
      return trace::plan_tacker(calib, cfg.fused_cuda_cols);
    case core::Strategy::kTCICFC:
      return trace::plan_tc_ic_fc(calib, cfg.fused_cuda_cols);
    case core::Strategy::kVitBit:
      return trace::plan_vitbit(calib, cfg.fused_cuda_cols, cfg.pack_factor);
  }
  return trace::plan_tc(calib);
}

struct GemmKernel {
  core::Strategy strategy = core::Strategy::kTC;
  int cuda_cols = 0;
  int pack = 0;  // VitBit only; 0 for plans that ignore it
  trace::GemmShape shape;

  bool operator==(const GemmKernel& o) const {
    return strategy == o.strategy && cuda_cols == o.cuda_cols &&
           pack == o.pack && shape.m == o.shape.m && shape.k == o.shape.k &&
           shape.n == o.shape.n && shape.batch == o.shape.batch;
  }
};

struct ElementwiseKernel {
  nn::KernelKind kind = nn::KernelKind::kAdd;
  std::int64_t elems = 0;

  bool operator==(const ElementwiseKernel&) const = default;
};

template <typename T>
void add_unique(std::vector<T>& items, const T& item) {
  if (std::find(items.begin(), items.end(), item) == items.end())
    items.push_back(item);
}

// Seeded operands at the logs' distinct GEMM shapes (one instance each),
// in first-appearance order, within kGemmReplayMacs. Values stay inside
// the FP slice's exact range, |a| * |b| * K < 2^24.
std::vector<GemmOperands> generated_operands(
    const std::vector<nn::KernelLog>& logs, std::uint64_t seed) {
  std::vector<std::array<int, 3>> shapes;
  double macs = 0.0;
  for (const auto& log : logs)
    for (const auto& c : log.calls()) {
      if (c.kind != nn::KernelKind::kGemm) continue;
      const std::array<int, 3> shape{c.m, c.k, c.n};
      if (std::find(shapes.begin(), shapes.end(), shape) != shapes.end())
        continue;
      const double shape_macs = static_cast<double>(c.m) * c.k * c.n;
      if (!shapes.empty() && macs + shape_macs > kGemmReplayMacs) continue;
      shapes.push_back(shape);
      macs += shape_macs;
    }
  vitbit::Rng rng(seed);
  std::vector<GemmOperands> out;
  for (const auto& [m, k, n] : shapes) {
    const auto r = static_cast<std::int64_t>(
        std::min(127.0, std::floor(std::sqrt(16777215.0 / k))));
    GemmOperands g{MatrixI32(m, k), MatrixI32(k, n)};
    vitbit::fill_uniform(g.a, rng, -r, r);
    vitbit::fill_uniform(g.b, rng, -r, r);
    out.push_back(std::move(g));
  }
  return out;
}

bool all_non_negative(const MatrixI32& m) {
  return std::all_of(m.flat().begin(), m.flat().end(),
                     [](std::int32_t v) { return v >= 0; });
}

}  // namespace

std::size_t run_replay(const ReplayInputs& in, const RunContext& ctx,
                       const std::string& work_dir, Metrics& out,
                       Checker& check) {
  const arch::Calibration& calib = *ctx.calib;
  std::size_t calls = 0;

  // nn: rebuild each log and count the simulations time_inference runs.
  std::vector<nn::KernelLog> logs;
  double log_s = 0.0;
  double kernel_calls = 0.0, keys = 0.0;
  for (const auto& use : in.logs) {
    logs.push_back(timed("nn", "nn.build_kernel_log", use.label.c_str(),
                         log_s, use.build));
    ++calls;
    const auto n_calls = static_cast<double>(logs.back().calls().size());
    const auto n_keys = static_cast<double>(distinct_call_keys(logs.back()));
    kernel_calls += n_calls;
    keys += n_keys;
    out.add("nn.key_reuse." + use.label, 1.0 - n_keys / n_calls, "ratio");
  }
  out.add("nn.kernel_log_ms", 1e3 * log_s / static_cast<double>(logs.size()),
          "ms");
  out.add("nn.kernel_calls", kernel_calls, "count");
  out.add("nn.distinct_keys", keys, "count");
  out.add("nn.key_reuse", 1.0 - keys / kernel_calls, "ratio");

  // trace + sim: every distinct kernel at its strategy's untuned plan.
  std::vector<GemmKernel> gemms;
  std::vector<ElementwiseKernel> elementwise;
  for (std::size_t u = 0; u < in.logs.size(); ++u)
    for (const auto& c : logs[u].calls()) {
      if (c.kind != nn::KernelKind::kGemm) {
        add_unique(elementwise, ElementwiseKernel{c.kind, c.elems});
        continue;
      }
      for (const auto s : in.logs[u].strategies)
        for (const auto& cfg : in.logs[u].configs)
          add_unique(gemms,
                     GemmKernel{s, cfg.fused_cuda_cols,
                                s == core::Strategy::kVitBit ? cfg.pack_factor
                                                             : 0,
                                {c.m, c.k, c.n, c.batch}});
    }
  double build_gemm_s = 0.0, build_ew_s = 0.0;
  double launch_gemm_s = 0.0, launch_ew_s = 0.0;
  double sim_cycles = 0.0, sim_instr = 0.0;
  const auto simulate = [&](const sim::KernelSpec& kernel, const char* kind,
                            double& launch_s) {
    const auto r = timed("sim", "sim.launch_kernel", kind, launch_s, [&] {
      return sim::launch_kernel(kernel, ctx.spec, calib);
    });
    sim_cycles += static_cast<double>(r.sm.cycles);
    sim_instr += static_cast<double>(r.sm.instructions_issued);
    check.require(r.total_cycles > 0 && r.sm.instructions_issued > 0,
                  std::string("replayed ") + kind + " kernel ran");
    ++calls;
  };
  for (const auto& g : gemms) {
    core::StrategyConfig cfg;
    cfg.fused_cuda_cols = g.cuda_cols;
    cfg.pack_factor = g.pack == 0 ? cfg.pack_factor : g.pack;
    try {
      const auto kernel = timed(
          "trace", "trace.build_gemm_kernel", core::strategy_name(g.strategy),
          build_gemm_s, [&] {
            return trace::build_gemm_kernel(
                g.shape, untuned_plan(g.strategy, cfg, calib), ctx.spec,
                calib);
          });
      simulate(kernel, "gemm", launch_gemm_s);
    } catch (const std::exception& e) {
      check.require(false, "gemm kernel replay: " + first_line(e));
    }
  }
  for (const auto& e : elementwise) {
    try {
      const auto kernel = timed(
          "trace", "trace.build_elementwise_kernel",
          nn::kernel_kind_name(e.kind), build_ew_s, [&] {
            return trace::build_elementwise_kernel(
                trace::elementwise_plan(e.kind, e.elems, calib), ctx.spec,
                calib);
          });
      simulate(kernel, "elementwise", launch_ew_s);
    } catch (const std::exception& ex) {
      check.require(false, "elementwise kernel replay: " + first_line(ex));
    }
  }
  const auto n_gemm = static_cast<double>(gemms.size());
  const auto n_ew = static_cast<double>(elementwise.size());
  out.add("trace.build_gemm_ms", 1e3 * build_gemm_s / n_gemm, "ms");
  out.add("trace.build_elementwise_ms", 1e3 * build_ew_s / n_ew, "ms");
  out.add("trace.kernels_per_s", (n_gemm + n_ew) / (build_gemm_s + build_ew_s),
          "1/s");
  out.add("sim.launch_gemm_ms", 1e3 * launch_gemm_s / n_gemm, "ms");
  out.add("sim.launch_elementwise_ms", 1e3 * launch_ew_s / n_ew, "ms");
  out.add("sim.mcycles_per_s", sim_cycles / (launch_gemm_s + launch_ew_s) * 1e-6,
          "Mcycles/s");
  out.add("sim.minstr_per_s", sim_instr / (launch_gemm_s + launch_ew_s) * 1e-6,
          "Minstr/s");

  // tensor + vitbit + swar: the functional GEMM paths on real operands,
  // each checked against the reference product.
  const std::vector<GemmOperands> generated =
      in.gemms.empty() ? generated_operands(logs, ctx.seed)
                       : std::vector<GemmOperands>{};
  const std::vector<GemmOperands>& operands =
      in.gemms.empty() ? generated : in.gemms;
  double int_s = 0.0, f32_s = 0.0, weights_s = 0.0, input_s = 0.0;
  double fused_s = 0.0, packed_s = 0.0;
  double macs = 0.0, packed_macs = 0.0, spills = 0.0, mac_instr = 0.0;
  for (const auto& g : operands) {
    ++calls;
    const std::string shape = std::to_string(g.a.rows()) + "x" +
                              std::to_string(g.a.cols()) + "x" +
                              std::to_string(g.b.cols());
    try {
      const MatrixI32 ref = timed("tensor", "tensor.gemm_int", "", int_s,
                                  [&] { return vitbit::gemm_int(g.a, g.b); });
      const auto af = vitbit::convert<float>(g.a);
      const auto bf = vitbit::convert<float>(g.b);
      const MatrixF32 cf = timed("tensor", "tensor.gemm_f32", "", f32_s,
                                 [&] { return vitbit::gemm_f32(af, bf); });
      bool f32_exact = cf.size() == ref.size();
      for (std::size_t i = 0; f32_exact && i < ref.size(); ++i)
        f32_exact = std::llround(cf.flat()[i]) == ref.flat()[i];
      check.require(f32_exact, shape + ": gemm_f32 equals gemm_int");
      macs += static_cast<double>(g.a.rows()) * g.a.cols() * g.b.cols();

      const auto mode = all_non_negative(g.a) && all_non_negative(g.b)
                            ? swar::LaneMode::kUnsigned
                            : swar::LaneMode::kTopSigned;
      const auto layout = swar::paper_policy_layout(8, mode);
      const auto weights =
          timed("vitbit", "vitbit.weight_preprocessing", "", weights_s,
                [&] { return core::weight_preprocessing(g.a); });
      const auto input =
          timed("vitbit", "vitbit.input_preprocessing", "", input_s, [&] {
            return core::input_preprocessing(g.b, core::StrategyConfig{}.m_ratio,
                                             layout.num_lanes, layout);
          });
      const MatrixI32 fused =
          timed("vitbit", "vitbit.vitbit_gemm", "", fused_s,
                [&] { return core::vitbit_gemm(weights, input); });
      check.require(fused == ref, shape + ": vitbit_gemm equals gemm_int");

      const int n1 = input.widths.n1;
      if (n1 > 0) {
        swar::PackedGemmStats stats;
        const MatrixI32 packed =
            timed("swar", "swar.gemm_packed", "", packed_s, [&] {
              return swar::gemm_packed(g.a, input.b1, {}, &stats);
            });
        check.require(packed == vitbit::slice_cols(ref, 0, n1),
                      shape + ": gemm_packed equals gemm_int");
        packed_macs += static_cast<double>(g.a.rows()) * g.a.cols() * n1;
        spills += static_cast<double>(stats.spill_events);
        mac_instr += static_cast<double>(stats.mac_instructions);
      }
    } catch (const std::exception& e) {
      check.require(false, shape + " gemm replay: " + first_line(e));
    }
  }
  const auto n_ops = static_cast<double>(operands.size());
  out.add("tensor.gemm_int_gops", 2.0 * macs / int_s * 1e-9, "Gop/s");
  out.add("tensor.gemm_f32_gops", 2.0 * macs / f32_s * 1e-9, "Gop/s");
  out.add("vitbit.weight_preprocess_ms", 1e3 * weights_s / n_ops, "ms");
  out.add("vitbit.input_preprocess_ms", 1e3 * input_s / n_ops, "ms");
  out.add("vitbit.fused_gemm_ms", 1e3 * fused_s / n_ops, "ms");
  out.add("swar.gemm_packed_gops", 2.0 * packed_macs / packed_s * 1e-9,
          "Gop/s");
  out.add("swar.spills_per_mac", spills / mac_instr, "spills/mac");

  // report: the run's own report through to_json, save and load.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(work_dir) / ("report-roundtrip-" + std::to_string(getpid()));
  double to_json_s = 0.0, save_s = 0.0, load_s = 0.0;
  ++calls;
  try {
    fs::create_directories(dir);
    const std::string path = (dir / "report.json").string();
    const std::string dumped = timed(
        "report", "report.to_json", "", to_json_s,
        [&] { return report::to_json(in.report).dump(); });
    timed("report", "report.save_report_file", "", save_s, [&] {
      report::save_report_file(path, in.report);
      return 0;
    });
    const auto loaded = timed("report", "report.load_report_file", "",
                              load_s,
                              [&] { return report::load_report_file(path); });
    check.require(report::to_json(loaded).dump() == dumped,
                  "report round trip is lossless");
  } catch (const std::exception& e) {
    check.require(false, "report round trip: " + first_line(e));
  }
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  out.add("report.to_json_ms", 1e3 * to_json_s, "ms");
  out.add("report.save_ms", 1e3 * save_s, "ms");
  out.add("report.load_ms", 1e3 * load_s, "ms");
  return calls;
}

}  // namespace bench
