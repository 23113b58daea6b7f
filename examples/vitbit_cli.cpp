// vitbit_cli — one binary to drive the library's main entry points:
//
//   vitbit_cli study  [--m=197 --k=768 --n=3072]     Section 3.2 ratio study
//   vitbit_cli tune   [--m=197 --k=768 --n=3072]     derive m / fused slice
//   vitbit_cli infer  [--model=vit|cnn] [--strategy=VitBit] [--pack=2]
//   vitbit_cli layout [--bits=8]                     packing policy details
//   vitbit_cli report --json=out.json                machine-readable report
//   vitbit_cli serve  [--rates=... --policy=timeout] serving rate sweep
//
// Every subcommand accepts --threads=N (default: hardware_concurrency,
// 1 = serial) and --gemm=ref|simd to pick the host GEMM engine (same
// override as the VITBIT_GEMM env var; both engines are bit-identical).
// Simulated results are identical for every N.
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "nn/cnn.h"
#include "nn/vit_model.h"
#include "report/run_report.h"
#include "serve/cluster.h"
#include "sim/gpu_sim.h"
#include "swar/layout.h"
#include "tensor/gemm_dispatch.h"
#include "tensor/simd_level.h"
#include "trace/gemm_traces.h"
#include "vitbit/config_io.h"
#include "vitbit/pipeline.h"
#include "vitbit/timeline.h"
#include "vitbit/tuner.h"

namespace vitbit {
namespace {

const arch::OrinSpec kSpec;

int cmd_study(const Cli& cli, ThreadPool& pool) {
  const auto& calib = arch::default_calibration();
  trace::GemmShape shape{static_cast<int>(cli.get_int("m", 197)),
                         static_cast<int>(cli.get_int("k", 768)),
                         static_cast<int>(cli.get_int("n", 3072)), 1};
  const auto s = core::run_initial_study(shape, kSpec, calib, &pool);
  Table t("initial study (normalized to TC)");
  t.header({"TC", "IC", "FC", "IC+FC", "IC+FC+P"});
  t.row()
      .cell(1.0, 2)
      .cell(s.ratio_ic(), 2)
      .cell(s.ratio_fc(), 2)
      .cell(s.ratio_icfc(), 2)
      .cell(s.ratio_icfcp(), 2);
  t.print(std::cout);
  return 0;
}

int cmd_tune(const Cli& cli, ThreadPool& pool) {
  const auto& calib = arch::default_calibration();
  trace::GemmShape shape{static_cast<int>(cli.get_int("m", 197)),
                         static_cast<int>(cli.get_int("k", 768)),
                         static_cast<int>(cli.get_int("n", 3072)), 1};
  const auto cfg = core::tune_strategy_config(shape, kSpec, calib, &pool);
  std::cout << "derived Tensor:CUDA ratio m = " << cfg.m_ratio
            << "\nfused CUDA column slice   = " << cfg.fused_cuda_cols
            << "\npacking factor            = " << cfg.pack_factor << "\n";
  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    core::save_config_file(out, cfg);
    std::cout << "saved to " << out << "\n";
  }
  return 0;
}

int cmd_infer(const Cli& cli, ThreadPool& pool) {
  const auto& calib = arch::default_calibration();
  const std::string model = cli.get("model", "vit");
  const auto log = model == "cnn" ? nn::build_cnn_kernel_log(nn::cnn_edge())
                                  : nn::build_kernel_log(nn::vit_base());
  core::StrategyConfig cfg;
  const std::string cfg_path = cli.get("config", "");
  if (!cfg_path.empty()) cfg = core::load_config_file(cfg_path);
  cfg.pack_factor = static_cast<int>(cli.get_int("pack", cfg.pack_factor));
  const std::string want = cli.get("strategy", "");
  std::vector<core::Strategy> selected;
  for (const auto s : core::all_strategies())
    if (want.empty() || want == core::strategy_name(s)) selected.push_back(s);
  const auto results = core::time_inferences(
      core::strategy_jobs(log, selected, cfg), kSpec, calib, &pool);

  Table t("inference timing — " + (model == "cnn" ? std::string("edge CNN")
                                                  : std::string("ViT-Base")));
  t.header({"method", "time (ms)", "energy (mJ)", "instructions"});
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const auto& r = results[i];
    t.row()
        .cell(core::strategy_name(selected[i]))
        .cell(r.total_ms(kSpec), 3)
        .cell(r.total_energy_mj, 2)
        .cell(r.total_instructions);
  }
  t.print(std::cout);
  if (cli.get_bool("timeline", false) && !results.empty()) {
    std::cout << "\n";
    core::render_comparison(std::cout, results, kSpec);
    std::cout << "\n";
    core::render_timeline(std::cout, results.back());
  }
  return 0;
}

// Times every strategy and writes the result as a schema-versioned JSON
// run report (report/run_report.h) — the machine-readable counterpart of
// `infer`, consumed by tools/check_regression and external dashboards.
int cmd_report(const Cli& cli, ThreadPool& pool) {
  const auto start = std::chrono::steady_clock::now();
  const auto& calib = arch::default_calibration();
  const std::string model = cli.get("model", "vit");
  auto vit_cfg = nn::vit_base();
  vit_cfg.num_layers =
      static_cast<int>(cli.get_int("layers", vit_cfg.num_layers));
  const auto log = model == "cnn" ? nn::build_cnn_kernel_log(nn::cnn_edge())
                                  : nn::build_kernel_log(vit_cfg);
  core::StrategyConfig cfg;
  cfg.pack_factor = static_cast<int>(cli.get_int("pack", cfg.pack_factor));
  const std::string want = cli.get("strategy", "");
  if (!want.empty()) {
    bool known = false;
    for (const auto s : core::all_strategies())
      known = known || want == core::strategy_name(s);
    VITBIT_CHECK_MSG(known, "unknown strategy: " << want);
  }

  report::RunReport rep;
  rep.tool = "vitbit_cli";
  rep.meta = report::build_metadata();
  rep.meta["model"] = model;
  if (model != "cnn")
    rep.meta["layers"] = std::to_string(vit_cfg.num_layers);
  rep.meta["pack_factor"] = std::to_string(cfg.pack_factor);
  rep.threads = pool.size();
  std::vector<core::Strategy> selected;
  for (const auto s : core::all_strategies())
    if (want.empty() || want == core::strategy_name(s)) selected.push_back(s);
  for (const auto& r : core::time_inferences(
           core::strategy_jobs(log, selected, cfg), kSpec, calib, &pool))
    rep.strategies.push_back(report::make_strategy_report(r, kSpec));
  if (cli.get_bool("l2", false)) {
    // One addressed multi-SM L2 run per GEMM plan family, over a reduced
    // shape so the section stays cheap.
    const trace::GemmShape shape{197, 768,
                                 static_cast<int>(cli.get_int("l2-n", 256)),
                                 1};
    const std::vector<std::pair<const char*, trace::GemmBlockPlan>> rows = {
        {"tc", trace::plan_tc(calib)},
        {"vitbit", trace::plan_vitbit(calib, 12)}};
    rep.l2_runs = parallel_map(&pool, rows.size(), [&](std::size_t i) {
      const auto kernel =
          trace::build_gemm_kernel(shape, rows[i].second, kSpec, calib);
      const auto geom = trace::gemm_grid_geom(shape, rows[i].second, kSpec);
      sim::GpuSim gpu(kSpec, calib);
      const auto g = gpu.run(kernel, geom,
                             sim::occupancy_blocks_per_sm(kernel, kSpec));
      return report::make_l2_report(
          std::string("gemm_") + std::to_string(shape.m) + "x" +
              std::to_string(shape.k) + "x" + std::to_string(shape.n) + "_" +
              rows[i].first,
          g);
    });
  }
  rep.host_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::string out = cli.json_path();
  if (out.empty()) {
    // No path: print the document to stdout (pipe-friendly).
    report::to_json(rep).write(std::cout, 2);
    std::cout << "\n";
    return 0;
  }
  report::save_report_file(out, rep);
  // Self-check: the emitted artifact must round-trip through the reader
  // bit-identically before anything downstream trusts it.
  const auto back = report::load_report_file(out);
  VITBIT_CHECK_MSG(report::to_json(back) == report::to_json(rep),
                   "report round-trip mismatch: " << out);
  std::cout << "wrote " << out << " (schema v" << report::kSchemaVersion
            << ", " << rep.strategies.size() << " strategies, "
            << rep.l2_runs.size() << " L2 runs)\n";
  return 0;
}

// Serving-simulator rate sweep (serve/cluster.h): open-loop arrivals into
// one batching shard, TC vs VitBit goodput and tail latency per rate,
// with optional deterministic fault injection (serve/faults.h). --json
// writes the schema-versioned serve_points report.
int cmd_serve(const Cli& cli, ThreadPool& pool) {
  const auto start = std::chrono::steady_clock::now();
  const auto& calib = arch::default_calibration();
  // The one flag set shared with bench/serve_sim, validated on return.
  const auto cfg = serve::sweep_config_from_cli(cli);

  const auto points = serve::run_rate_sweep(cfg, kSpec, calib, &pool);
  serve::sweep_table(cfg, points).print(std::cout);

  const std::string out = cli.json_path();
  if (!out.empty()) {
    auto rep = serve::make_serve_report(cfg, points, "vitbit_cli",
                                        pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(out, rep);
    // Same self-check as `report`: the artifact must round-trip before
    // anything downstream trusts it.
    const auto back = report::load_report_file(out);
    VITBIT_CHECK_MSG(report::to_json(back) == report::to_json(rep),
                     "serve report round-trip mismatch: " << out);
    std::cout << "wrote " << out << " (" << rep.serve_points.size()
              << " sweep points)\n";
  }
  return 0;
}

// Fleet sweep (serve/cluster.h): the request stream routed across many
// shards under each balancing policy, with optional per-shard
// autoscaling. --json writes the schema-versioned fleet_points report.
int cmd_fleet(const Cli& cli, ThreadPool& pool) {
  const auto start = std::chrono::steady_clock::now();
  const auto& calib = arch::default_calibration();
  // The one flag set shared with bench/fleet_sim, validated on return.
  const auto cfg = serve::fleet_config_from_cli(cli);

  const auto points = serve::run_fleet_sweep(cfg, kSpec, calib, &pool);
  serve::fleet_table(cfg, points).print(std::cout);

  const std::string out = cli.json_path();
  if (!out.empty()) {
    auto rep = serve::make_fleet_report(cfg, points, "vitbit_cli",
                                        pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(out, rep);
    // Same self-check as `report`: the artifact must round-trip before
    // anything downstream trusts it.
    const auto back = report::load_report_file(out);
    VITBIT_CHECK_MSG(report::to_json(back) == report::to_json(rep),
                     "fleet report round-trip mismatch: " << out);
    std::cout << "wrote " << out << " (" << rep.fleet_points.size()
              << " sweep points)\n";
  }
  return 0;
}

// Scheduler sweep (serve/sched/sched.h): a mixed multi-class request
// stream over the model zoo through fifo, cb, and cb-pre scheduling.
// --json writes the schema-versioned sched_points report.
int cmd_sched(const Cli& cli, ThreadPool& pool) {
  const auto start = std::chrono::steady_clock::now();
  const auto& calib = arch::default_calibration();
  // The one flag set shared with bench/sched_sim, validated on return.
  const auto cfg = serve::sched_config_from_cli(cli);

  const auto points = serve::run_sched_sweep(cfg, kSpec, calib, &pool);
  serve::sched_table(cfg, points).print(std::cout);

  const std::string out = cli.json_path();
  if (!out.empty()) {
    auto rep = serve::make_sched_report(cfg, points, "vitbit_cli",
                                        pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(out, rep);
    // Same self-check as `report`: the artifact must round-trip before
    // anything downstream trusts it.
    const auto back = report::load_report_file(out);
    VITBIT_CHECK_MSG(report::to_json(back) == report::to_json(rep),
                     "sched report round-trip mismatch: " << out);
    std::cout << "wrote " << out << " (" << rep.sched_points.size()
              << " sweep rows)\n";
  }
  return 0;
}

// Scheduled-fleet sweep (serve/cluster.h simulate_fleet_sched): the
// mixed multi-class stream routed across many scheduler shards, warm
// routing and model placement compared against jsq. --json writes the
// schema-versioned fleet_sched_points report.
int cmd_fleet_sched(const Cli& cli, ThreadPool& pool) {
  const auto start = std::chrono::steady_clock::now();
  const auto& calib = arch::default_calibration();
  // The one flag set shared with bench/fleet_sched_sim, validated on
  // return.
  const auto cfg = serve::fleet_sched_config_from_cli(cli);

  const auto points = serve::run_fleet_sched_sweep(cfg, kSpec, calib, &pool);
  serve::fleet_sched_table(cfg, points).print(std::cout);

  const std::string out = cli.json_path();
  if (!out.empty()) {
    auto rep = serve::make_fleet_sched_report(cfg, points, "vitbit_cli",
                                              pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(out, rep);
    // Same self-check as `report`: the artifact must round-trip before
    // anything downstream trusts it.
    const auto back = report::load_report_file(out);
    VITBIT_CHECK_MSG(report::to_json(back) == report::to_json(rep),
                     "fleet-sched report round-trip mismatch: " << out);
    std::cout << "wrote " << out << " (" << rep.fleet_sched_points.size()
              << " sweep rows)\n";
  }
  return 0;
}

int cmd_layout(const Cli& cli) {
  const int bits = static_cast<int>(cli.get_int("bits", 8));
  for (const auto mode : {swar::LaneMode::kUnsigned, swar::LaneMode::kOffset,
                          swar::LaneMode::kTopSigned}) {
    const auto l = swar::paper_policy_layout(bits, mode);
    std::cout << l.to_string() << "  budget=" << l.scalar_abs_budget() << "\n";
  }
  return 0;
}

int dispatch(const Cli& cli, const std::string& cmd, ThreadPool& pool) {
  if (cmd == "study") return cmd_study(cli, pool);
  if (cmd == "tune") return cmd_tune(cli, pool);
  if (cmd == "infer") return cmd_infer(cli, pool);
  if (cmd == "layout") return cmd_layout(cli);
  if (cmd == "report") return cmd_report(cli, pool);
  if (cmd == "serve") return cmd_serve(cli, pool);
  if (cmd == "fleet") return cmd_fleet(cli, pool);
  if (cmd == "sched") return cmd_sched(cli, pool);
  if (cmd == "fleet-sched") return cmd_fleet_sched(cli, pool);
  return -1;
}

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string cmd =
      cli.positional().empty() ? "help" : cli.positional()[0];
  // CLI override for the host GEMM engine, same spelling as VITBIT_GEMM,
  // and for the SIMD tier, same spelling as VITBIT_SIMD_LEVEL.
  if (cli.has("gemm"))
    set_default_gemm_engine(gemm_engine_from_string(cli.get("gemm", "")));
  if (cli.has("simd-level"))
    set_simd_level_override(
        simd_level_from_string(cli.get("simd-level", "")));
  ThreadPool pool(cli.threads());
  const int rc = dispatch(cli, cmd, pool);
  if (rc >= 0) {
    // Subcommands query the flags they accept; anything left over is a
    // typo that would otherwise silently fall back to a default.
    if (const auto typos = cli.unused(); !typos.empty()) {
      std::cerr << "vitbit_cli " << cmd << ": unknown flag --" << typos.front()
                << "\n";
      return 2;
    }
    return rc;
  }
  std::cout << "usage: vitbit_cli "
               "<study|tune|infer|layout|report|serve|fleet|sched|"
               "fleet-sched> [--flags]\n"
               "  study  --m --k --n        Section 3.2 GEMM ratio study\n"
               "  tune   --m --k --n        derive the VitBit split ratios\n"
               "  infer  --model=vit|cnn --strategy=NAME --pack=2\n"
               "  layout --bits=N           packing policy for a bitwidth\n"
               "  report --json=PATH --model=vit|cnn --layers=N --l2\n"
               "         machine-readable run report (see EXPERIMENTS.md)\n"
               "  serve  --rates=CSV --arrival=poisson|uniform|bursty\n"
               "         --policy=timeout|greedy --max-batch=N\n"
               "         --batch-timeout-us=N --queue-capacity=N --num-gpus=N\n"
               "         --slo-us=N --duration-s=S --seed=N [--json=PATH]\n"
               "         fault injection: --fault-seed=N --mtbf-s=S\n"
               "         --mttr-s=S --batch-fail-prob=P --spike-prob=P\n"
               "         --spike-mult=X --max-retries=N --retry-backoff-us=N\n"
               "         --degrade-below=N --fallback=NAME\n"
               "         serving rate sweep: TC vs VitBit goodput and p99\n"
               "  fleet  --shards=N --routes=rr,jsq,po2c --route-seed=N\n"
               "         --strategy=NAME --replicas=N --exact plus the serve\n"
               "         flags; autoscaling: --min-replicas=N\n"
               "         --max-replicas=N --scale-interval-us=N\n"
               "         --scale-up-depth=N --scale-down-depth=N\n"
               "         --scale-p99-us=N --scale-cooldown-us=N\n"
               "         sharded fleet sweep: balancing policies compared\n"
               "         with streaming (P^2) percentiles [--json=PATH]\n"
               "  sched  --models=CSV (zoo names, see serve/models)\n"
               "         --modes=fifo,cb,cb-pre --rates=CSV --classes=CSV\n"
               "         --weights=CSV --slos-us=CSV --shares=CSV\n"
               "         --arrivals=CSV --mix=CSV or per-class --mix0=CSV...\n"
               "         --max-batch=N --queue-capacity=N --num-gpus=N\n"
               "         --iters=N --cache-models=N --load-gbps=X\n"
               "         --warm-swap-us=N --exact [--json=PATH]\n"
               "         continuous-batching scheduler with priority\n"
               "         classes over the multi-model zoo\n"
               "  fleet-sched  the sched flags plus --shards=N\n"
               "         --routes=jsq,warm --route-seed=N\n"
               "         --placement=none|spread --cold-route-classes=N;\n"
               "         autoscaling adds --scale-preempt-per-s=X\n"
               "         --scale-slo-miss-rate=X to the fleet knobs\n"
               "         class-aware scheduled fleet: warm routing and\n"
               "         model placement vs jsq [--json=PATH]\n"
               "  all subcommands: --threads=N  host threads for the\n"
               "         simulation fan-out (default: all cores, 1=serial;\n"
               "         simulated results are identical for every N)\n"
               "         --gemm=ref|simd  host GEMM engine (default:\n"
               "         simd; same as VITBIT_GEMM; bit-identical)\n"
               "         --simd-level=none|sse|avx2  cap the simd engine's\n"
               "         microkernel tier (same as VITBIT_SIMD_LEVEL;\n"
               "         clamped to what the CPU supports; bit-identical)\n";
  return cmd == "help" ? 0 : 1;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
