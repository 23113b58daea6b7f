// check_regression — the CI perf gate.
//
// Runs the fig5 (end-to-end inference) and fig10 (IPC) pipelines on a
// reduced-layer ViT-Base plus reduced serving-simulator sweeps
// (serve/cluster.h) — a one-shard rate sweep, a faults sweep, a sharded
// fleet sweep, a mixed-class scheduler sweep, and a class-aware
// scheduled-fleet sweep — emits schema-versioned run reports, and diffs
// them against the checked-in baselines. Exit 0 when every metric is
// within tolerance; exit 1 naming the first offending metric otherwise.
//
//   check_regression [--baselines=baselines] [--layers=2]
//                    [--cycles-tol=0.02] [--ipc-tol=0.01] [--serve-tol=0.05]
//                    [--gemm-speedup-floor=3.0] [--simd-speedup-floor=6.0]
//                    [--sim-loop-floor=0.5] [--sim-loop-repeats=3]
//                    [--json=PATH] [--threads=N]
//   check_regression --update          regenerate the baseline files
//
// Besides the simulated figures, the gate measures the simd host GEMM
// engine (tensor/gemm_simd.h) forced to SIMD tier none, where it runs the
// scalar tiles of tensor/gemm_blocked.h, and at the active tier, against
// the reference triple loop, timed once per dtype, on one ViT-Base linear
// shape: bit-identity is enforced exactly, and each tier's measured
// speedup must clear the floor recorded in the baseline at --update time
// (--gemm-speedup-floor for tier none, --simd-speedup-floor for the
// active tier; raw GFLOP/s are machine-dependent and never diffed).
//
// The sim_loop gate times the bit-packed SmSim against the frozen
// pre-packing SmSimRef on the fixed workload set of
// trace/sim_loop_workloads.h: SmStats byte-identity is enforced exactly
// (stats_identical), simulated cycles/instructions are pinned with zero
// tolerance, and the packed layout's host speedup must clear the
// --sim-loop-floor recorded at --update time.
//
// --threads=N fans the strategy replays and candidate sweeps over a host
// thread pool (default: hardware_concurrency; 1 restores the serial
// behavior). Simulated metrics are bit-identical for every N — only the
// host wall-clock recorded in the reports changes.
//
// Calibration overrides (for injecting drift in tests, and for asking
// "would this calibration change trip the gate?"):
//   --tc-macs=N           override Calibration::tc_macs_per_cycle, N >= 1
//   --launch-overhead=N   override kernel_launch_overhead_cycles, N >= 0
// A value out of range or empty exits 2 before any gate runs: these two
// and --layers / --sim-loop-repeats (>= 1) must fit an int, and every
// tolerance and floor must be finite and >= 0.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/thread_pool.h"
#include "nn/vit_model.h"
#include "report/baseline.h"
#include "report/run_report.h"
#include "serve/cluster.h"
#include "sim/gpu_sim.h"
#include "sim/sim_loop_timing.h"
#include "tensor/gemm_timing.h"
#include "tensor/simd_level.h"
#include "trace/gemm_traces.h"
#include "trace/sim_loop_workloads.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

constexpr char kTool[] = "check_regression";

// One gated report: its baseline file stem and the run that builds it.
struct GateRow {
  std::string name;
  std::function<report::RunReport()> build;
};

// An empty report of this tool for `figure`, stamped with the build.
report::RunReport gate_report(const std::string& figure) {
  report::RunReport rep;
  rep.tool = kTool;
  rep.meta = report::build_metadata();
  rep.meta["figure"] = figure;
  return rep;
}

// Serving gate: a reduced rate sweep (1-layer model, small batches, one
// unsaturated and one saturated rate) so queueing behaviour — goodput,
// drops, tails — is regression-gated, not just kernel cycles.
serve::SweepConfig serve_sweep_config() {
  serve::SweepConfig c;
  c.model = nn::vit_base();
  c.model.num_layers = 1;
  c.rates_rps = {1000, 8000};
  c.workload.duration_s = 0.25;
  c.workload.seed = 7;
  c.server.max_batch = 4;
  c.server.queue_capacity = 32;
  return c;
}

// Fault-injection gate: the same reduced sweep with every fault process
// enabled — replica failures, transient batch failures, latency spikes,
// retries, and degraded-mode failover to TC across two replicas — so
// the retry/shed/failover accounting is regression-gated, not just the
// fault-free queueing path.
serve::SweepConfig serve_faults_config() {
  serve::SweepConfig c = serve_sweep_config();
  c.rates_rps = {2000, 6000};
  c.server.num_gpus = 2;
  c.server.faults.seed = 11;
  c.server.faults.replica_mtbf_s = 0.05;
  c.server.faults.replica_mttr_s = 0.02;
  c.server.faults.batch_failure_prob = 0.05;
  c.server.faults.latency_spike_prob = 0.1;
  c.server.faults.latency_spike_mult = 3.0;
  c.server.faults.degrade_below_live = 2;
  c.fallback_strategy = core::Strategy::kTC;
  return c;
}

// The autoscaler of both fleet gates: one to two replicas per shard.
serve::AutoscaleConfig gate_autoscale() {
  serve::AutoscaleConfig a;
  a.min_replicas = 1;
  a.max_replicas = 2;
  a.interval_us = 20000;
  a.up_queue_depth = 8;
  a.down_queue_depth = 1;
  a.cooldown_us = 40000;
  return a;
}

// Fleet gate: a reduced sharded sweep (4 shards, rr vs jsq vs po2c at
// one unsaturated and one saturated rate, streaming P² percentiles,
// autoscaling on) so the router, the sketch path, the span-weighted
// aggregation, and the autoscaler are all regression-gated.
serve::FleetSweepConfig fleet_sweep_config() {
  serve::FleetSweepConfig c;
  c.model = nn::vit_base();
  c.model.num_layers = 1;
  c.rates_rps = {2000, 12000};
  c.workload.duration_s = 0.25;
  c.workload.seed = 7;
  c.fleet.num_shards = 4;
  c.fleet.shard.max_batch = 4;
  c.fleet.shard.queue_capacity = 32;
  c.fleet.autoscale = gate_autoscale();
  return c;
}

// The mixed traffic of both scheduler gates: three priority classes over
// a three-model zoo, at one unsaturated and one saturated rate, served by
// continuous-batching shards. The 300 us interactive SLO is deliberately
// tight: queued interactive requests go urgent under the saturated rate,
// so the preemption counter is nonzero and regression-gated.
template <class Config>
void set_mixed_traffic(Config& c, serve::SchedConfig& sched) {
  c.model_names = {"vit-tiny", "vit-tiny-int4", "cnn-small"};
  c.rates_rps = {2000, 12000};
  c.workload.duration_s = 0.25;
  c.workload.seed = 7;
  c.workload.classes.assign(3, serve::ClassTraffic{});
  c.workload.classes[0].rate_share = 0.2;
  c.workload.classes[0].model_mix = {0.6, 0.2, 0.2};
  c.workload.classes[1].rate_share = 0.5;
  c.workload.classes[1].model_mix = {0.2, 0.6, 0.2};
  c.workload.classes[2].rate_share = 0.3;
  c.workload.classes[2].model_mix = {0.2, 0.2, 0.6};
  sched.max_batch = 4;
  sched.queue_capacity = 32;
  sched.iters = 4;
  sched.classes = {{"interactive", 4.0, 300},
                   {"standard", 2.0, 20000},
                   {"batch", 1.0, 100000}};
}

// Scheduler gate: the mixed traffic on one shard, all three modes (fifo,
// cb, cb-pre) — so the registry's memoized tables, WRR admission,
// deadline preemption, and the model-swap accounting are all
// regression-gated alongside the older tiers.
serve::SchedSweepConfig sched_sweep_config() {
  serve::SchedSweepConfig c;
  set_mixed_traffic(c, c.sched);
  c.swap.cache_models = 2;
  return c;
}

// Scheduled-fleet gate: the mixed traffic sharded over four
// continuous-batching shards with spread placement, warm vs jsq routing,
// and the preemption-aware autoscaler enabled — so the unified tier
// (warm-mask routing, placement prestaging, per-class scale signals,
// span-weighted cross-shard aggregation) is regression-gated end to end.
serve::FleetSchedSweepConfig fleet_sched_config() {
  serve::FleetSchedSweepConfig c;
  set_mixed_traffic(c, c.fleet.shard);
  // One cached model per replica: every cross-model dispatch on a
  // mis-routed shard is a cold swap, so the warm-vs-jsq contrast measures
  // routing quality, not cache capacity.
  c.swap.cache_models = 1;
  c.fleet.num_shards = 4;
  c.fleet.placement = serve::PlacementPolicy::kSpread;
  c.fleet.cold_route_classes = 1;
  c.fleet.autoscale = gate_autoscale();
  c.fleet.autoscale.up_preempt_per_s = 50.0;
  return c;
}

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  arch::Calibration calib = arch::default_calibration();
  // Integer flags are range-checked as int64 before they narrow to int:
  // --tc-macs=0 (or 2^32, which narrows to 0) divides by zero, a negative
  // rate makes a negative IMMA occupancy, a negative launch overhead wraps
  // in sim::extrapolate's unsigned total, and --layers=4294967297 would
  // narrow to 1. An empty value (--layers=) reads as lo - 1 and fails.
  const auto read_int = [&](const char* name, std::int64_t lo, int& field) {
    if (!cli.has(name)) return true;
    const std::int64_t v = cli.get_int(name, lo - 1);
    if (v < lo || v > std::numeric_limits<int>::max()) {
      std::cerr << "check_regression: --" << name << " must be in [" << lo
                << ", " << std::numeric_limits<int>::max() << "], got "
                << cli.get(name, "") << "\n";
      return false;
    }
    field = static_cast<int>(v);
    return true;
  };
  // Tolerances and floors must be finite and >= 0: rel_delta > NaN is
  // false, so a NaN tolerance would pass every metric it governs. An empty
  // value reads as NaN and fails.
  const auto read_nonnegative = [&](const char* name, double& field) {
    if (!cli.has(name)) return true;
    field = cli.get_double(name, std::numeric_limits<double>::quiet_NaN());
    if (std::isfinite(field) && field >= 0.0) return true;
    std::cerr << "check_regression: --" << name << " must be in [0, inf), got "
              << cli.get(name, "") << "\n";
    return false;
  };

  int layers = 2;
  report::ToleranceSpec tol;
  // Floors recorded into the host_gemm baseline at --update time; during
  // a check run the committed baseline's floors are what gate. 3.0 leaves
  // a 2x margin under the ~6-11x measured for the scalar tiles (tier
  // none) on the gated fc1 shape; the simd floor asserts the vector
  // microkernels stay at least ~2x faster than that on AVX2 CI machines.
  double gemm_floor = 3.0;
  double simd_floor = 6.0;
  // Floor for the packed-simulator host speedup, recorded into the
  // sim_loop baseline at --update time. The packed layout ranges from
  // parity (issue-bound int GEMM) to ~7x (memory-stall-bound) on the
  // development machine; 0.5 sits well under the weakest point, so CI
  // noise and slower hosts don't trip the gate while a real layout
  // regression (packed falling far behind the reference) still does.
  double sim_loop_floor = 0.5;
  int sim_loop_repeats = 3;
  if (!read_int("tc-macs", 1, calib.tc_macs_per_cycle) ||
      !read_int("launch-overhead", 0, calib.kernel_launch_overhead_cycles) ||
      !read_int("layers", 1, layers) ||
      !read_int("sim-loop-repeats", 1, sim_loop_repeats) ||
      !read_nonnegative("cycles-tol", tol.cycles) ||
      !read_nonnegative("ipc-tol", tol.ipc) ||
      !read_nonnegative("serve-tol", tol.serve) ||
      !read_nonnegative("gemm-speedup-floor", gemm_floor) ||
      !read_nonnegative("simd-speedup-floor", simd_floor) ||
      !read_nonnegative("sim-loop-floor", sim_loop_floor))
    return 2;
  // One IMMA is 4096 MACs; keep the derived occupancy consistent. This is
  // ceil(4096 / tc-macs) in a form that cannot overflow.
  if (cli.has("tc-macs"))
    calib.imma_occupancy_cycles = 4095 / calib.tc_macs_per_cycle + 1;

  const std::string dir = cli.get("baselines", "baselines");
  const bool update = cli.get_bool("update", false);
  const std::string json_out = cli.json_path();
  ThreadPool pool(cli.threads());

  // A typo'd flag silently reverting to its default would make the gate
  // pass vacuously; fail loud instead.
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "check_regression: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  auto vit_cfg = nn::vit_base();
  vit_cfg.num_layers = layers;
  const auto log = nn::build_kernel_log(vit_cfg);
  const core::StrategyConfig cfg;
  bool all_ok = true;
  std::string offending;
  const auto fail = [&](const std::string& metric) {
    all_ok = false;
    if (offending.empty()) offending = metric;
  };

  const auto figure = [&](const char* name,
                          const std::vector<core::Strategy>& strategies,
                          bool with_l2) {
    auto rep = gate_report(name);
    rep.meta["model"] = "vit";
    rep.meta["layers"] = std::to_string(layers);
    for (const auto& r : core::time_inferences(
             core::strategy_jobs(log, strategies, cfg), spec, calib, &pool))
      rep.strategies.push_back(report::make_strategy_report(r, spec));
    if (!with_l2) return rep;
    // One addressed multi-SM run so L2 hit/miss behaviour is gated too.
    const trace::GemmShape shape{197, 768, 256, 1};
    const std::vector<std::pair<const char*, trace::GemmBlockPlan>> plans = {
        {"tc", trace::plan_tc(calib)},
        {"vitbit", trace::plan_vitbit(calib, 12)}};
    rep.l2_runs = parallel_map(&pool, plans.size(), [&](std::size_t i) {
      const auto kernel =
          trace::build_gemm_kernel(shape, plans[i].second, spec, calib);
      const auto geom = trace::gemm_grid_geom(shape, plans[i].second, spec);
      sim::GpuSim gpu(spec, calib);
      const auto g =
          gpu.run(kernel, geom, sim::occupancy_blocks_per_sm(kernel, spec));
      return report::make_l2_report(
          std::string("gemm_197x768x256_") + plans[i].first, g);
    });
    return rep;
  };
  const auto fig5 = [&] {
    return figure("fig5_inference", core::figure5_strategies(), true);
  };
  const auto fig10 = [&] {
    return figure("fig10_ipc", core::figure7_strategies(), false);
  };
  const auto serve_sweep = [&] {
    const auto c = serve_sweep_config();
    const auto points = serve::run_rate_sweep(c, spec, calib, &pool);
    return serve::make_serve_report(c, points, kTool, pool.size());
  };
  const auto serve_faults = [&] {
    const auto c = serve_faults_config();
    const auto points = serve::run_rate_sweep(c, spec, calib, &pool);
    return serve::make_serve_report(c, points, kTool, pool.size());
  };
  const auto fleet_sweep = [&] {
    const auto c = fleet_sweep_config();
    const auto points = serve::run_fleet_sweep(c, spec, calib, &pool);
    return serve::make_fleet_report(c, points, kTool, pool.size());
  };
  const auto sched_sweep = [&] {
    const auto c = sched_sweep_config();
    const auto points = serve::run_sched_sweep(c, spec, calib, &pool);
    return serve::make_sched_report(c, points, kTool, pool.size());
  };
  const auto fleet_sched = [&] {
    const auto c = fleet_sched_config();
    const auto points = serve::run_fleet_sched_sweep(c, spec, calib, &pool);
    // Beyond the baseline diff, the tentpole claim of the unified tier:
    // summed over the identical (mode, rate) grid, warm routing produces
    // strictly fewer cold swaps than jsq. Checked on the fresh run, so a
    // routing regression trips --update too.
    std::uint64_t jsq_cold = 0, warm_cold = 0;
    for (const auto& p : points) {
      if (p.route == serve::RoutePolicy::kJsq)
        jsq_cold += p.metrics.total.cold_swaps;
      else if (p.route == serve::RoutePolicy::kWarm)
        warm_cold += p.metrics.total.cold_swaps;
    }
    std::cout << "fleet_sched cold swaps: jsq=" << jsq_cold
              << " warm=" << warm_cold << "\n";
    if (!(warm_cold < jsq_cold)) {
      fail("fleet_sched.warm_cold_swaps");
      std::cerr << "fleet_sched: warm routing did not reduce cold swaps ("
                << warm_cold << " vs jsq " << jsq_cold << ")\n";
    }
    return serve::make_fleet_sched_report(c, points, kTool, pool.size());
  };
  // Host-GEMM gate: the compute-heavy ViT-Base linear shape (fc1,
  // 197x768x3072), int32 and f32 under the simd engine forced to tier none
  // and at the active tier. The reference is timed once per dtype; both
  // tiers share it as their bit-identity oracle and speedup denominator.
  // The forced points are labelled "simd-none" so that no key depends on
  // the host's tier.
  const auto host_gemm = [&] {
    auto rep = gate_report("host_gemm");
    const GemmShapeSpec shape{"layer0.fc1", 197, 768, 3072};
    const int repeats = 2;
    const SimdLevel levels[] = {SimdLevel::kNone, active_simd_level()};
    const char* const engines[] = {"simd-none", "simd"};
    const double floors[] = {gemm_floor, simd_floor};
    const auto mi = measure_gemm_int(shape, repeats, 42, &pool, levels);
    const auto mf = measure_gemm_f32(shape, repeats, 42, &pool, levels);
    for (std::size_t e = 0; e < std::size(levels); ++e) {
      for (const auto& [dtype, m] :
           {std::pair<const char*, const GemmMeasurement&>{"int32", mi[e]},
            {"f32", mf[e]}}) {
        rep.gemm_points.push_back(report::make_gemm_point(
            shape, dtype, engines[e], levels[e], repeats, m));
        rep.gemm_points.back().min_speedup = floors[e];
      }
    }
    return rep;
  };
  // Sim-loop gate: byte-identical SmStats is the admissibility contract;
  // the one-sided speedup floor keeps the bit-packed layout's perf win
  // regression-protected rather than anecdotal.
  const auto sim_loop = [&] {
    auto rep = gate_report("sim_loop");
    for (const auto& w : trace::sim_loop_workloads(spec, calib)) {
      const auto m = sim::measure_sim_loop(w.name, w.kernel,
                                           w.resident_blocks, spec, calib,
                                           sim_loop_repeats);
      auto& p = rep.sim_loop_points.emplace_back();
      p.name = m.name;
      p.cycles = m.cycles;
      p.instructions = m.instructions;
      p.repeats = m.repeats;
      p.ref_seconds = m.ref_seconds;
      p.packed_seconds = m.packed_seconds;
      p.speedup = m.speedup;
      p.stats_identical = m.stats_identical;
      p.min_speedup = sim_loop_floor;
    }
    return rep;
  };
  const std::vector<GateRow> gates = {
      {"fig5_inference", fig5},
      {"fig10_ipc", fig10},
      {"serve_sweep", serve_sweep},
      {"serve_faults", serve_faults},
      {"fleet_sweep", fleet_sweep},
      {"sched_sweep", sched_sweep},
      {"fleet_sched", fleet_sched},
      {"host_gemm", host_gemm},
      {"sim_loop", sim_loop},
  };

  const auto seconds_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
        .count();
  };
  const auto wall_start = std::chrono::steady_clock::now();
  report::Json combined = report::Json::object();
  for (const auto& gate : gates) {
    const auto start = std::chrono::steady_clock::now();
    report::RunReport fresh = gate.build();
    fresh.host_wall_seconds = seconds_since(start);
    fresh.threads = pool.size();
    if (!json_out.empty()) combined.set(gate.name, report::to_json(fresh));
    const std::string path = dir + "/" + gate.name + ".json";
    if (update) {
      // A failed invariant must not be committed as the new baseline.
      if (!all_ok) return 1;
      report::save_report_file(path, report::strip_host_only(fresh));
      std::cout << "regenerated " << path << "\n";
      continue;
    }
    const auto result = report::check_against_baseline(
        fresh, report::load_report_file(path), tol);
    std::cout << "== " << gate.name << " vs " << path << " ==\n";
    if (result.ok()) {
      std::cout << "all " << result.deltas.size()
                << " metrics within tolerance (cycles ±" << tol.cycles * 100
                << "%, IPC ±" << tol.ipc * 100 << "%, serve ±"
                << tol.serve * 100 << "%)\n\n";
    } else {
      result.render(std::cout, /*violations_only=*/true);
      std::cout << "\n";
      fail(result.first_violation());
    }
  }
  if (!json_out.empty()) {
    report::save_json_file(json_out, combined);
    std::cout << "wrote " << json_out << "\n";
  }
  std::cout << "host wall-clock: " << seconds_since(wall_start) << " s with "
            << pool.size() << " thread(s)\n";
  if (update || all_ok) {
    if (!update) std::cout << "check_regression: OK\n";
    return 0;
  }
  std::cerr << "check_regression: REGRESSION in metric '" << offending
            << "' (see delta table above). If the change is intended,\n"
               "regenerate with: tools/check_regression --update\n";
  return 1;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
