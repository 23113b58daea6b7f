// Schema-versioned machine-readable run reports.
//
// A RunReport captures everything one simulated run produced — per-strategy
// inference timings (core::InferenceTiming), per-kernel SM statistics
// (sim::SmStats: opcode issue counts, unit busy cycles, DRAM bytes), and
// optional whole-GPU L2 results (sim::GpuRunResult) — plus build/config
// metadata, as one JSON document. CI diffs these against checked-in
// baselines (report/baseline.h) instead of scraping console tables.
//
// Each report struct is described once, by the field table its static
// fields() returns: one row per member, giving its JSON name and its gate
// class. The writer, the reader, key(), find_point(), the baseline gate and
// its host-only strip are all derived from these tables, so a new field is
// one member plus one row.
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "arch/orin_spec.h"
#include "common/table.h"
#include "report/json.h"
#include "sim/gpu_sim.h"
#include "sim/stats.h"
#include "tensor/gemm_timing.h"
#include "tensor/simd_level.h"
#include "vitbit/pipeline.h"

namespace vitbit::report {

// The reader rejects documents of any other version, and requires every
// key that the writer writes.
inline constexpr int kSchemaVersion = 2;

// How the baseline gate (report/baseline.h) treats a field.
enum class Gate {
  kKey,       // part of the entry's identity, see key(); never compared
  kUngated,   // recorded for humans, never compared
  kExact,     // deterministic: any drift is a violation
  kCycles,    // ToleranceSpec::cycles
  kIpc,       // ToleranceSpec::ipc
  kEnergy,    // +-5%
  kL2,        // L2 hit rate, +-1%
  kServe,     // ToleranceSpec::serve
  kHostOnly,  // machine-dependent: never compared, cleared in baselines
  kFloor,     // one-sided: the fresh value of the field named by `metric`
              // must reach the baseline's value of this one (skipped at 0)
};

// One row of a field table. `metric` names the field in gate output when
// that differs from its JSON name (for kFloor: the measured field).
template <class T, class M>
struct Field {
  const char* json;
  M T::*member;
  Gate gate;
  const char* metric = nullptr;
};

// A list of keyed entries, each gated through its own table and matched
// across reports by key(). Its metrics are named
// "<prefix>.<key>.<field>" (just "<key>.<field>" for an empty prefix); an
// entry found on one side only is noted as "<prefix>.<key>.<presence>".
template <class T, class E>
struct Section {
  const char* json;
  std::vector<E> T::*member;
  const char* prefix;
  const char* presence;
};

// Calls fn(row) for each row of T's field table, in JSON order.
template <class T, class Fn>
void for_each_field(Fn&& fn) {
  std::apply([&](const auto&... row) { (fn(row), ...); }, T::fields());
}

// sim::SmStats with names instead of enum indices (only nonzero counters
// are kept, so reports stay small and resilient to ISA growth).
struct SmStatsReport {
  std::uint64_t cycles = 0;
  std::uint64_t instructions_issued = 0;
  std::uint64_t dram_bytes = 0;
  double ipc = 0.0;
  std::map<std::string, std::uint64_t> issued_by_opcode;
  std::map<std::string, std::uint64_t> unit_busy_cycles;

  static constexpr auto fields() {
    using R = SmStatsReport;
    using enum Gate;
    return std::tuple{
        Field{"cycles", &R::cycles, kUngated},
        Field{"instructions_issued", &R::instructions_issued, kUngated},
        Field{"dram_bytes", &R::dram_bytes, kUngated},
        Field{"ipc", &R::ipc, kUngated},
        Field{"issued_by_opcode", &R::issued_by_opcode, kUngated},
        Field{"unit_busy_cycles", &R::unit_busy_cycles, kUngated},
    };
  }
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

  static constexpr auto fields() {
    using R = KernelReport;
    using enum Gate;
    return std::tuple{
        Field{"name", &R::name, kKey},
        Field{"kind", &R::kind, kUngated},
        Field{"cycles", &R::cycles, kCycles},
        Field{"instructions", &R::instructions, kUngated},
        Field{"ipc", &R::ipc, kIpc},
        Field{"int_util", &R::int_util, kUngated},
        Field{"fp_util", &R::fp_util, kUngated},
        Field{"tc_util", &R::tc_util, kUngated},
        Field{"energy_mj", &R::energy_mj, kUngated},
        Field{"sm", &R::sm, kUngated},
    };
  }
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

  static constexpr auto fields() {
    using R = StrategyReport;
    using enum Gate;
    return std::tuple{
        Field{"strategy", &R::strategy, kKey},
        Field{"total_cycles", &R::total_cycles, kCycles},
        Field{"gemm_cycles", &R::gemm_cycles, kCycles},
        Field{"cuda_cycles", &R::cuda_cycles, kCycles},
        Field{"total_instructions", &R::total_instructions, kExact},
        Field{"total_ms", &R::total_ms, kUngated},
        Field{"total_energy_mj", &R::total_energy_mj, kEnergy},
        Field{"mean_ipc", &R::mean_ipc, kIpc},
        Section{"kernels", &R::kernels, "kernel", "cycles"},
    };
  }
};

// One sim::GpuRunResult (multi-SM L2 validation run).
struct L2Report {
  std::string name;  // what was run, e.g. "gemm_197x768x3072_tc"
  std::uint64_t cycles = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  double l2_hit_rate = 0.0;
  SmStatsReport total;

  static constexpr auto fields() {
    using R = L2Report;
    using enum Gate;
    return std::tuple{
        Field{"name", &R::name, kKey},
        Field{"cycles", &R::cycles, kCycles},
        Field{"l2_hits", &R::l2_hits, kUngated},
        Field{"l2_misses", &R::l2_misses, kUngated},
        Field{"l2_hit_rate", &R::l2_hit_rate, kL2, "hit_rate"},
        Field{"total", &R::total, kUngated},
    };
  }
};

// One (strategy, arrival-rate) point of a serving-simulator rate sweep
// (serve/cluster.h). Latencies are virtual microseconds; rates are
// requests per virtual second. offered counts arrivals of the seeded
// workload, so it is exact; completed and everything downstream inherit
// latency drift through the queue dynamics.
struct ServePointReport {
  std::string strategy;
  std::string policy;
  std::string arrival;
  double rate_rps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  // Fault-injection accounting (serve/metrics.h); all zero for fault-free
  // sweeps.
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

  static constexpr auto fields() {
    using R = ServePointReport;
    using enum Gate;
    return std::tuple{
        Field{"strategy", &R::strategy, kKey},
        Field{"policy", &R::policy, kKey},
        Field{"arrival", &R::arrival, kKey},
        Field{"rate_rps", &R::rate_rps, kKey},
        Field{"offered", &R::offered, kExact},
        Field{"completed", &R::completed, kServe},
        Field{"dropped", &R::dropped, kUngated},
        Field{"batch_failures", &R::batch_failures, kServe},
        Field{"retries", &R::retries, kServe},
        Field{"requeued", &R::requeued, kServe},
        Field{"shed", &R::shed, kServe},
        Field{"failovers", &R::failovers, kServe},
        Field{"degraded_s", &R::degraded_s, kServe},
        Field{"batches", &R::batches, kUngated},
        Field{"mean_batch_size", &R::mean_batch_size, kUngated},
        Field{"drop_rate", &R::drop_rate, kServe},
        Field{"throughput_rps", &R::throughput_rps, kServe},
        Field{"goodput_rps", &R::goodput_rps, kServe},
        Field{"utilization", &R::utilization, kServe},
        Field{"mean_queue_depth", &R::mean_queue_depth, kUngated},
        Field{"max_queue_depth", &R::max_queue_depth, kUngated},
        Field{"p50_us", &R::p50_us, kServe},
        Field{"p90_us", &R::p90_us, kUngated},
        Field{"p95_us", &R::p95_us, kUngated},
        Field{"p99_us", &R::p99_us, kServe},
    };
  }
};

// One (route-policy, arrival-rate) point of a fleet sweep
// (serve/cluster.h). Latency percentiles are P²-sketch estimates unless
// the sweep ran with exact percentiles.
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

  static constexpr auto fields() {
    using R = FleetPointReport;
    using enum Gate;
    return std::tuple{
        Field{"strategy", &R::strategy, kKey},
        Field{"route", &R::route, kKey},
        Field{"policy", &R::policy, kKey},
        Field{"arrival", &R::arrival, kKey},
        Field{"rate_rps", &R::rate_rps, kKey},
        Field{"offered", &R::offered, kExact},
        Field{"completed", &R::completed, kServe},
        Field{"dropped", &R::dropped, kUngated},
        Field{"shed", &R::shed, kServe},
        Field{"batches", &R::batches, kUngated},
        Field{"mean_batch_size", &R::mean_batch_size, kUngated},
        Field{"drop_rate", &R::drop_rate, kServe},
        Field{"throughput_rps", &R::throughput_rps, kServe},
        Field{"goodput_rps", &R::goodput_rps, kServe},
        Field{"utilization", &R::utilization, kServe},
        Field{"mean_queue_depth", &R::mean_queue_depth, kUngated},
        Field{"max_queue_depth", &R::max_queue_depth, kUngated},
        Field{"p50_us", &R::p50_us, kServe},
        Field{"p90_us", &R::p90_us, kUngated},
        Field{"p95_us", &R::p95_us, kUngated},
        Field{"p99_us", &R::p99_us, kServe},
        Field{"scale_ups", &R::scale_ups, kServe},
        Field{"scale_downs", &R::scale_downs, kServe},
        Field{"shard_util_min", &R::shard_util_min, kServe},
        Field{"shard_util_max", &R::shard_util_max, kServe},
    };
  }
};

// One row of a continuous-batching scheduler sweep (serve/cluster.h). Each
// (mode, rate) sweep point expands to one aggregate row (scope "all",
// group "all") plus one row per priority class (scope "class", group =
// class name) and per zoo model (scope "model", group = model name).
// Preemption/swap counters are whole-run totals carried on the "all" row
// only.
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

  static constexpr auto fields() {
    using R = SchedPointReport;
    using enum Gate;
    return std::tuple{
        Field{"mode", &R::mode, kKey},
        Field{"scope", &R::scope, kKey},
        Field{"group", &R::group, kKey},
        Field{"rate_rps", &R::rate_rps, kKey},
        Field{"offered", &R::offered, kExact},
        Field{"completed", &R::completed, kServe},
        Field{"dropped", &R::dropped, kUngated},
        Field{"preemptions", &R::preemptions, kServe},
        Field{"model_swaps", &R::model_swaps, kServe},
        Field{"swap_us", &R::swap_us, kUngated},
        Field{"batches", &R::batches, kUngated},
        Field{"mean_batch_size", &R::mean_batch_size, kUngated},
        Field{"drop_rate", &R::drop_rate, kServe},
        Field{"throughput_rps", &R::throughput_rps, kServe},
        Field{"goodput_rps", &R::goodput_rps, kServe},
        Field{"utilization", &R::utilization, kServe},
        Field{"mean_queue_depth", &R::mean_queue_depth, kUngated},
        Field{"max_queue_depth", &R::max_queue_depth, kUngated},
        Field{"p50_us", &R::p50_us, kServe},
        Field{"p90_us", &R::p90_us, kUngated},
        Field{"p95_us", &R::p95_us, kUngated},
        Field{"p99_us", &R::p99_us, kServe},
    };
  }
};

// One row of a class-aware scheduled-fleet sweep (serve/cluster.h
// simulate_fleet_sched). Each (mode, route, rate) sweep point expands like
// a sched point: one aggregate row (scope "all", group "all") plus one row
// per priority class and per zoo model. Whole-run counters — preemptions,
// swaps, autoscale actions, utilization spread — ride the "all" row only.
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

  static constexpr auto fields() {
    using R = FleetSchedPointReport;
    using enum Gate;
    return std::tuple{
        Field{"mode", &R::mode, kKey},
        Field{"route", &R::route, kKey},
        Field{"scope", &R::scope, kKey},
        Field{"group", &R::group, kKey},
        Field{"rate_rps", &R::rate_rps, kKey},
        Field{"offered", &R::offered, kExact},
        Field{"completed", &R::completed, kServe},
        Field{"dropped", &R::dropped, kUngated},
        Field{"preemptions", &R::preemptions, kServe},
        Field{"model_swaps", &R::model_swaps, kServe},
        Field{"cold_swaps", &R::cold_swaps, kServe},
        Field{"swap_us", &R::swap_us, kUngated},
        Field{"batches", &R::batches, kUngated},
        Field{"mean_batch_size", &R::mean_batch_size, kUngated},
        Field{"drop_rate", &R::drop_rate, kServe},
        Field{"throughput_rps", &R::throughput_rps, kServe},
        Field{"goodput_rps", &R::goodput_rps, kServe},
        Field{"utilization", &R::utilization, kServe},
        Field{"mean_queue_depth", &R::mean_queue_depth, kUngated},
        Field{"max_queue_depth", &R::max_queue_depth, kUngated},
        Field{"p50_us", &R::p50_us, kServe},
        Field{"p90_us", &R::p90_us, kUngated},
        Field{"p95_us", &R::p95_us, kUngated},
        Field{"p99_us", &R::p99_us, kServe},
        Field{"scale_ups", &R::scale_ups, kServe},
        Field{"scale_downs", &R::scale_downs, kServe},
        Field{"shard_util_min", &R::shard_util_min, kServe},
        Field{"shard_util_max", &R::shard_util_max, kServe},
    };
  }
};

// One (shape, dtype, engine) point of a host-GEMM sweep (bench/host_gemm,
// tensor/gemm_timing.h): the simd engine timed against the reference
// triple loop, at the active SIMD tier ("simd") or, in check_regression's
// host_gemm gate, forced to tier none ("simd-none"). The shape, the repeat
// count and max_abs_diff == 0 (bit-identity) are exact; the measured rates
// only gate through the min_speedup floor recorded at --update time.
struct GemmPointReport {
  std::string name;    // workload label, e.g. "layer0.attn.qkv"
  std::string dtype;   // "int32" | "f32"
  std::string engine;  // what was measured against the reference:
                       // "simd" | "simd-none"
  // SIMD tier the simd engine ran at ("none" | "sse" | "avx2").
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

  static constexpr auto fields() {
    using R = GemmPointReport;
    using enum Gate;
    return std::tuple{
        Field{"name", &R::name, kKey},
        Field{"dtype", &R::dtype, kKey},
        Field{"engine", &R::engine, kKey},
        Field{"simd_level", &R::simd_level, kHostOnly},
        Field{"m", &R::m, kExact},
        Field{"k", &R::k, kExact},
        Field{"n", &R::n, kExact},
        Field{"repeats", &R::repeats, kExact},
        Field{"gflops", &R::gflops, kHostOnly},
        Field{"ref_gflops", &R::ref_gflops, kHostOnly},
        Field{"speedup", &R::speedup, kHostOnly},
        Field{"max_abs_diff", &R::max_abs_diff, kExact},
        Field{"min_speedup", &R::min_speedup, kFloor, "speedup"},
    };
  }
};

// One workload of a host-simulation-loop timing run (bench/sim_loop,
// sim/sim_loop_timing.h): the bit-packed SmSim timed against the frozen
// pre-packing SmSimRef. cycles/instructions are simulated and exact, as is
// stats_identical (the packed layout's byte-identity contract); the
// measured seconds only gate through the min_speedup floor.
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

  static constexpr auto fields() {
    using R = SimLoopPointReport;
    using enum Gate;
    return std::tuple{
        Field{"name", &R::name, kKey},
        Field{"cycles", &R::cycles, kExact},
        Field{"instructions", &R::instructions, kExact},
        Field{"repeats", &R::repeats, kExact},
        Field{"ref_seconds", &R::ref_seconds, kHostOnly},
        Field{"packed_seconds", &R::packed_seconds, kHostOnly},
        Field{"speedup", &R::speedup, kHostOnly},
        Field{"stats_identical", &R::stats_identical, kExact},
        Field{"min_speedup", &R::min_speedup, kFloor, "speedup"},
    };
  }
};

struct RunReport {
  std::string tool;  // producing binary, e.g. "vitbit_cli" / "check_regression"
  // Host-side performance of the run that produced this report: wall-clock
  // seconds spent simulating and the --threads count used. 0 when the
  // producer did not record them.
  double host_wall_seconds = 0.0;
  int threads = 0;
  // Free-form run context: model, layers, pack factor, build type, compiler.
  // Baseline checking requires these to match exactly, apart from the
  // toolchain keys.
  std::map<std::string, std::string> meta;
  // Each list is empty when the run did not produce that kind of result.
  std::vector<StrategyReport> strategies;
  std::vector<L2Report> l2_runs;
  std::vector<ServePointReport> serve_points;
  std::vector<GemmPointReport> gemm_points;
  std::vector<FleetPointReport> fleet_points;
  std::vector<SchedPointReport> sched_points;
  std::vector<FleetSchedPointReport> fleet_sched_points;
  std::vector<SimLoopPointReport> sim_loop_points;

  static constexpr auto fields() {
    using R = RunReport;
    using enum Gate;
    return std::tuple{
        Field{"tool", &R::tool, kUngated},
        Field{"host_wall_seconds", &R::host_wall_seconds, kHostOnly},
        Field{"threads", &R::threads, kHostOnly},
        Field{"meta", &R::meta, kExact},
        Section{"strategies", &R::strategies, "", "total_cycles"},
        Section{"l2_runs", &R::l2_runs, "l2", "cycles"},
        Section{"serve_points", &R::serve_points, "serve", "goodput_rps"},
        Section{"gemm_points", &R::gemm_points, "gemm", "max_abs_diff"},
        Section{"fleet_points", &R::fleet_points, "fleet", "goodput_rps"},
        Section{"sched_points", &R::sched_points, "sched", "goodput_rps"},
        Section{"fleet_sched_points", &R::fleet_sched_points, "fleet_sched",
                "goodput_rps"},
        Section{"sim_loop_points", &R::sim_loop_points, "sim_loop",
                "stats_identical"},
    };
  }
};

// "%g" of a numeric key field, so rate 400.0 keys as "400".
std::string key_number(double v);

// Stable identity of an entry within its list: its kKey fields in table
// order, strings joined by '.' and a number appended after '@', e.g.
// "VitBit.timeout.poisson@400" or "layer0.fc1.int32.simd".
template <class T>
std::string key(const T& entry) {
  std::string out;
  for_each_field<T>([&](const auto& row) {
    if constexpr (requires { row.gate; }) {
      using M = std::remove_cvref_t<decltype(entry.*row.member)>;
      if (row.gate != Gate::kKey) return;
      if constexpr (std::is_same_v<M, std::string>)
        out += (out.empty() ? "" : ".") + entry.*row.member;
      else if constexpr (std::is_arithmetic_v<M>)
        out += "@" + key_number(entry.*row.member);
    }
  });
  return out;
}

// nullptr when `list` holds no entry whose key() is `k`.
template <class T>
const T* find_point(const std::vector<T>& list, const std::string& k) {
  for (const auto& entry : list)
    if (key(entry) == k) return &entry;
  return nullptr;
}

// ---- Builders from live simulator results ----

SmStatsReport make_sm_stats_report(const sim::SmStats& sm);
KernelReport make_kernel_report(const core::KernelTiming& timing);
StrategyReport make_strategy_report(const core::InferenceTiming& timing,
                                    const arch::OrinSpec& spec);
L2Report make_l2_report(const std::string& name, const sim::GpuRunResult& r);
// The simd engine timed at `level`, reported under `engine` ("simd" at the
// active tier, "simd-none" when forced to none); min_speedup is left 0.
GemmPointReport make_gemm_point(const GemmShapeSpec& shape,
                                const std::string& dtype,
                                const std::string& engine, SimdLevel level,
                                int repeats, const GemmMeasurement& m);

// Compiler/build-mode/schema identification stamped into every report.
std::map<std::string, std::string> build_metadata();

// ---- JSON round-trip ----

Json to_json(const RunReport& r);

// Throws CheckError on a schema-version mismatch, a missing key or a value
// of the wrong type.
RunReport run_report_from_json(const Json& j);

RunReport load_report_file(const std::string& path);
void save_report_file(const std::string& path, const RunReport& report);

// A console Table as a JSON document ({"title", "columns", "rows": [...]},
// rows keyed by column name) — the --json form of every bench table.
Json table_to_json(const Table& table);

}  // namespace vitbit::report
