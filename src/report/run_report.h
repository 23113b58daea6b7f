// Schema-versioned machine-readable run reports.
//
// A RunReport captures everything one simulated run produced — per-strategy
// inference timings (core::InferenceTiming), per-kernel SM statistics
// (sim::SmStats: opcode issue counts, unit busy cycles, DRAM bytes), and
// optional whole-GPU L2 results (sim::GpuRunResult) — plus build/config
// metadata, as one JSON document. CI diffs these against checked-in
// baselines (report/baseline.h) instead of scraping console tables.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/orin_spec.h"
#include "common/table.h"
#include "report/json.h"
#include "sim/gpu_sim.h"
#include "sim/stats.h"
#include "vitbit/pipeline.h"

namespace vitbit::report {

// Bumped whenever the report layout changes incompatibly; the reader
// rejects documents with a different major version.
inline constexpr int kSchemaVersion = 1;
// Bumped on compatible additions. Readers accept any minor version:
// documents written before a minor bump simply lack the added fields
// (which all carry neutral defaults), so old baselines keep loading.
//   minor 1: host_wall_seconds + threads (host-side perf trajectory).
//   minor 2: serve_points (serving-simulator rate sweeps, src/serve).
//   minor 3: gemm_points (host GEMM engine sweep, tensor/gemm_blocked.h).
//   minor 4: serve fault metrics on serve_points (serve/faults.h).
//   minor 5: fleet_points (sharded fleet sweeps, serve/cluster.h).
//   minor 6: simd_level on gemm_points (tensor/simd_level.h) and the
//            measured engine name joined into the gemm-point key.
//   minor 7: sched_points (continuous-batching scheduler sweeps over the
//            multi-model zoo, serve/sched).
//   minor 8: sim_loop_points (host-simulation-loop timing of the
//            bit-packed SmSim vs the frozen SmSimRef, sim/sim_loop_timing).
//   minor 9: fleet_sched_points (class-aware scheduled fleet sweeps — the
//            sched and cluster tiers unified, serve/cluster.h
//            simulate_fleet_sched).
inline constexpr int kSchemaMinorVersion = 9;

// sim::SmStats with names instead of enum indices (only nonzero counters
// are kept, so reports stay small and resilient to ISA growth).
struct SmStatsReport {
  std::uint64_t cycles = 0;
  std::uint64_t instructions_issued = 0;
  std::uint64_t dram_bytes = 0;
  double ipc = 0.0;
  std::map<std::string, std::uint64_t> issued_by_opcode;
  std::map<std::string, std::uint64_t> unit_busy_cycles;
};

// One core::KernelTiming.
struct KernelReport {
  std::string name;
  std::string kind;  // nn::kernel_kind_name
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double ipc = 0.0;
  double int_util = 0.0;
  double fp_util = 0.0;
  double tc_util = 0.0;
  double energy_mj = 0.0;
  SmStatsReport sm;
};

// One core::InferenceTiming under a named strategy.
struct StrategyReport {
  std::string strategy;
  std::uint64_t total_cycles = 0;
  std::uint64_t gemm_cycles = 0;
  std::uint64_t cuda_cycles = 0;
  std::uint64_t total_instructions = 0;
  double total_ms = 0.0;
  double total_energy_mj = 0.0;
  double mean_ipc = 0.0;
  std::vector<KernelReport> kernels;
};

// One sim::GpuRunResult (multi-SM L2 validation run).
struct L2Report {
  std::string name;  // what was run, e.g. "gemm_197x768x3072_tc"
  std::uint64_t cycles = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  double l2_hit_rate = 0.0;
  SmStatsReport total;
};

// One (strategy, arrival-rate) point of a serving-simulator rate sweep
// (serve/server.h). Latencies are virtual microseconds; rates are
// requests per virtual second. Identified for baseline matching by
// (strategy, policy, arrival, rate_rps) — see key().
struct ServePointReport {
  std::string strategy;
  std::string policy;
  std::string arrival;
  double rate_rps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  // Fault-injection accounting (schema minor 4; serve/metrics.h). All
  // zero for fault-free sweeps and for pre-bump documents.
  std::uint64_t batch_failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t requeued = 0;
  std::uint64_t shed = 0;
  std::uint64_t failovers = 0;
  double degraded_s = 0.0;
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  double drop_rate = 0.0;
  double throughput_rps = 0.0;
  double goodput_rps = 0.0;
  double utilization = 0.0;
  double mean_queue_depth = 0.0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;

  // Stable identity within a report, e.g. "VitBit.timeout.poisson@200".
  std::string key() const;
};

// One (route-policy, arrival-rate) point of a fleet sweep
// (serve/cluster.h). Latency percentiles are P²-sketch estimates unless
// the sweep ran with exact percentiles. Identified for baseline matching
// by (strategy, route, policy, arrival, rate_rps) — see key().
struct FleetPointReport {
  std::string strategy;
  std::string route;    // serve::route_policy_name
  std::string policy;   // batch flush policy
  std::string arrival;
  double rate_rps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  double drop_rate = 0.0;
  double throughput_rps = 0.0;
  double goodput_rps = 0.0;
  double utilization = 0.0;
  double mean_queue_depth = 0.0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  // Fleet-only signals: autoscale actions summed over shards and the
  // spread of per-shard utilization (balance quality).
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  double shard_util_min = 0.0;
  double shard_util_max = 0.0;

  // Stable identity within a report, e.g. "VitBit.jsq.timeout.poisson@4000".
  std::string key() const;
};

// One row of a continuous-batching scheduler sweep (serve/sched). Each
// (mode, rate) sweep point expands to one aggregate row (scope "all",
// group "all") plus one row per priority class (scope "class", group =
// class name) and per zoo model (scope "model", group = model name).
// Preemption/swap counters are whole-run totals carried on the "all" row
// only. Identified for baseline matching by (mode, scope, group,
// rate_rps) — see key().
struct SchedPointReport {
  std::string mode;   // fifo | cb | cb-pre
  std::string scope;  // "all" | "class" | "model"
  std::string group;  // "all", class name, or model name
  double rate_rps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t preemptions = 0;  // "all" rows only
  std::uint64_t model_swaps = 0;  // "all" rows only
  std::uint64_t swap_us = 0;      // "all" rows only
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  double drop_rate = 0.0;
  double throughput_rps = 0.0;
  double goodput_rps = 0.0;
  double utilization = 0.0;  // "all" rows only (members share replicas)
  double mean_queue_depth = 0.0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;

  // Stable identity within a report, e.g. "cb-pre.class.gold@400".
  std::string key() const;
};

// One row of a class-aware scheduled-fleet sweep (serve/cluster.h
// simulate_fleet_sched — the sched and cluster tiers unified; schema
// minor 9). Each (mode, route, rate) sweep point expands like a sched
// point: one aggregate row (scope "all", group "all") plus one row per
// priority class and per zoo model. Whole-run counters — preemptions,
// swaps, autoscale actions, utilization spread — ride the "all" row
// only. Identified for baseline matching by (mode, route, scope, group,
// rate_rps) — see key().
struct FleetSchedPointReport {
  std::string mode;   // fifo | cb | cb-pre
  std::string route;  // serve::route_policy_name (jsq | warm | ...)
  std::string scope;  // "all" | "class" | "model"
  std::string group;  // "all", class name, or model name
  double rate_rps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t preemptions = 0;  // "all" rows only
  std::uint64_t model_swaps = 0;  // "all" rows only
  std::uint64_t cold_swaps = 0;   // "all" rows only — the full-load subset
  std::uint64_t swap_us = 0;      // "all" rows only
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  double drop_rate = 0.0;
  double throughput_rps = 0.0;
  double goodput_rps = 0.0;
  double utilization = 0.0;  // "all" rows only (members share replicas)
  double mean_queue_depth = 0.0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  // Fleet-only signals ("all" rows only): autoscale actions summed over
  // shards and the spread of per-shard utilization.
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  double shard_util_min = 0.0;
  double shard_util_max = 0.0;

  // Stable identity within a report, e.g. "cb-pre.warm.class.gold@400".
  std::string key() const;
};

// One (shape, dtype, engine) point of a host-GEMM sweep (bench/host_gemm,
// tensor/gemm_timing.h): the simd engine timed against the reference
// triple loop, at the active SIMD tier ("simd") or, in check_regression's
// host_gemm gate, forced to tier none ("simd-none"). gflops/ref_gflops/
// speedup and simd_level are machine-dependent and are zeroed/cleared in
// checked-in baselines; the gate instead enforces max_abs_diff == 0
// (bit-identity) and fresh speedup >= the baseline's min_speedup floor.
// Identified for baseline matching by (name, dtype, engine) — see key().
struct GemmPointReport {
  std::string name;    // workload label, e.g. "layer0.attn.qkv"
  std::string dtype;   // "int32" | "f32"
  std::string engine;  // what was measured against the reference:
                       // "simd" | "simd-none"
  // SIMD tier the simd engine ran at ("none" | "sse" | "avx2"; schema
  // minor 6). Machine-dependent — recorded for humans reading fresh
  // reports, cleared in baselines and never gated on.
  std::string simd_level;
  int m = 0;
  int k = 0;
  int n = 0;
  int repeats = 0;
  double gflops = 0.0;      // best-of-repeats, measured engine
  double ref_gflops = 0.0;  // best-of-repeats, reference engine
  double speedup = 0.0;     // gflops / ref_gflops
  double max_abs_diff = 0.0;  // vs reference output; 0 == bit-identical
  double min_speedup = 0.0;   // gate floor recorded at --update time

  // Stable identity within a report, e.g. "layer0.attn.qkv.int32.simd".
  std::string key() const;
};

// One workload of a host-simulation-loop timing run (bench/sim_loop,
// sim/sim_loop_timing.h): the bit-packed SmSim timed against the frozen
// pre-packing SmSimRef. cycles/instructions are simulated and therefore
// deterministic; the seconds/speedup fields are machine-dependent and are
// zeroed in checked-in baselines. The gate enforces stats_identical (the
// packed layout's byte-identity contract), exact cycles/instructions, and
// fresh speedup >= the baseline's min_speedup floor. Identified for
// baseline matching by name — see key().
struct SimLoopPointReport {
  std::string name;  // workload label, e.g. "vitbit_fused"
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  int repeats = 0;
  double ref_seconds = 0.0;     // best-of-repeats, SmSimRef
  double packed_seconds = 0.0;  // best-of-repeats, SmSim
  double speedup = 0.0;         // ref_seconds / packed_seconds
  bool stats_identical = false;  // SmSim stats == SmSimRef stats
  double min_speedup = 0.0;      // gate floor recorded at --update time

  std::string key() const { return name; }
};

struct RunReport {
  int schema_version = kSchemaVersion;
  int schema_minor_version = kSchemaMinorVersion;
  std::string tool;  // producing binary, e.g. "vitbit_cli" / "check_regression"
  // Free-form run context: model, layers, pack factor, build type, compiler.
  // Baseline checking requires these to match exactly.
  std::map<std::string, std::string> meta;
  // Host-side performance of the run that produced this report: wall-clock
  // seconds spent simulating and the --threads count used. Machine-
  // dependent by nature, so the baseline gate never compares them; they
  // make the simulator's own perf trajectory machine-readable alongside
  // the simulated metrics. 0 when the producer did not record them.
  double host_wall_seconds = 0.0;
  int threads = 0;
  std::vector<StrategyReport> strategies;
  std::vector<L2Report> l2_runs;
  // Serving-simulator sweep points (schema minor 2; empty for reports
  // that ran no serving simulation, and for pre-bump documents).
  std::vector<ServePointReport> serve_points;
  // Host-GEMM engine sweep points (schema minor 3; empty for reports that
  // ran no host-GEMM measurement, and for pre-bump documents).
  std::vector<GemmPointReport> gemm_points;
  // Fleet sweep points (schema minor 5; empty for reports that ran no
  // fleet simulation, and for pre-bump documents).
  std::vector<FleetPointReport> fleet_points;
  // Scheduler sweep points (schema minor 7; empty for reports that ran
  // no scheduler simulation, and for pre-bump documents).
  std::vector<SchedPointReport> sched_points;
  // Scheduled-fleet sweep points (schema minor 9; empty for reports that
  // ran no scheduled-fleet simulation, and for pre-bump documents).
  std::vector<FleetSchedPointReport> fleet_sched_points;
  // Host-simulation-loop timing points (schema minor 8; empty for reports
  // that ran no sim-loop measurement, and for pre-bump documents).
  std::vector<SimLoopPointReport> sim_loop_points;

  // nullptr when the report has no entry for `strategy`.
  const StrategyReport* find_strategy(const std::string& strategy) const;
  // nullptr when the report has no serve point with this key().
  const ServePointReport* find_serve_point(const std::string& key) const;
  // nullptr when the report has no gemm point with this key().
  const GemmPointReport* find_gemm_point(const std::string& key) const;
  // nullptr when the report has no fleet point with this key().
  const FleetPointReport* find_fleet_point(const std::string& key) const;
  // nullptr when the report has no sched point with this key().
  const SchedPointReport* find_sched_point(const std::string& key) const;
  // nullptr when the report has no scheduled-fleet point with this key().
  const FleetSchedPointReport* find_fleet_sched_point(
      const std::string& key) const;
  // nullptr when the report has no sim-loop point with this key().
  const SimLoopPointReport* find_sim_loop_point(const std::string& key) const;
};

// ---- Builders from live simulator results ----

SmStatsReport make_sm_stats_report(const sim::SmStats& sm);
KernelReport make_kernel_report(const core::KernelTiming& timing);
StrategyReport make_strategy_report(const core::InferenceTiming& timing,
                                    const arch::OrinSpec& spec);
L2Report make_l2_report(const std::string& name, const sim::GpuRunResult& r);

// Compiler/build-mode/schema identification stamped into every report.
std::map<std::string, std::string> build_metadata();

// ---- JSON round-trip ----

Json to_json(const SmStatsReport& r);
Json to_json(const KernelReport& r);
Json to_json(const StrategyReport& r);
Json to_json(const L2Report& r);
Json to_json(const ServePointReport& r);
Json to_json(const GemmPointReport& r);
Json to_json(const FleetPointReport& r);
Json to_json(const SchedPointReport& r);
Json to_json(const FleetSchedPointReport& r);
Json to_json(const SimLoopPointReport& r);
Json to_json(const RunReport& r);

// Throw CheckError on schema-version or shape mismatch.
RunReport run_report_from_json(const Json& j);

RunReport load_report_file(const std::string& path);
void save_report_file(const std::string& path, const RunReport& report);

// A console Table as a JSON document ({"title", "columns", "rows": [...]},
// rows keyed by column name) — the --json form of every bench table.
Json table_to_json(const Table& table);

}  // namespace vitbit::report
