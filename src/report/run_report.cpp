#include "report/run_report.h"

#include <cstdio>

#include "common/check.h"
#include "sim/isa.h"
#include "vitbit/strategy.h"

namespace vitbit::report {

namespace {

// "7.5.0" from __VERSION__-style strings is overkill; the macro text is
// already exactly what we want recorded.
std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_mode() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

Json counters_to_json(const std::map<std::string, std::uint64_t>& m) {
  Json obj = Json::object();
  for (const auto& [k, v] : m) obj.set(k, Json(v));
  return obj;
}

std::map<std::string, std::uint64_t> counters_from_json(const Json& j) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : j.items()) out[k] = v.as_uint();
  return out;
}

}  // namespace

const StrategyReport* RunReport::find_strategy(
    const std::string& strategy) const {
  for (const auto& s : strategies)
    if (s.strategy == strategy) return &s;
  return nullptr;
}

std::string ServePointReport::key() const {
  char rate[32];
  std::snprintf(rate, sizeof rate, "%g", rate_rps);
  return strategy + "." + policy + "." + arrival + "@" + rate;
}

const ServePointReport* RunReport::find_serve_point(
    const std::string& key) const {
  for (const auto& p : serve_points)
    if (p.key() == key) return &p;
  return nullptr;
}

std::string FleetPointReport::key() const {
  char rate[32];
  std::snprintf(rate, sizeof rate, "%g", rate_rps);
  return strategy + "." + route + "." + policy + "." + arrival + "@" + rate;
}

const FleetPointReport* RunReport::find_fleet_point(
    const std::string& key) const {
  for (const auto& p : fleet_points)
    if (p.key() == key) return &p;
  return nullptr;
}

std::string SchedPointReport::key() const {
  char rate[32];
  std::snprintf(rate, sizeof rate, "%g", rate_rps);
  return mode + "." + scope + "." + group + "@" + rate;
}

const SchedPointReport* RunReport::find_sched_point(
    const std::string& key) const {
  for (const auto& p : sched_points)
    if (p.key() == key) return &p;
  return nullptr;
}

std::string FleetSchedPointReport::key() const {
  char rate[32];
  std::snprintf(rate, sizeof rate, "%g", rate_rps);
  return mode + "." + route + "." + scope + "." + group + "@" + rate;
}

const FleetSchedPointReport* RunReport::find_fleet_sched_point(
    const std::string& key) const {
  for (const auto& p : fleet_sched_points)
    if (p.key() == key) return &p;
  return nullptr;
}

const SimLoopPointReport* RunReport::find_sim_loop_point(
    const std::string& key) const {
  for (const auto& p : sim_loop_points)
    if (p.key() == key) return &p;
  return nullptr;
}

std::string GemmPointReport::key() const {
  return name + "." + dtype + "." + engine;
}

const GemmPointReport* RunReport::find_gemm_point(
    const std::string& key) const {
  for (const auto& p : gemm_points)
    if (p.key() == key) return &p;
  return nullptr;
}

SmStatsReport make_sm_stats_report(const sim::SmStats& sm) {
  SmStatsReport r;
  r.cycles = sm.cycles;
  r.instructions_issued = sm.instructions_issued;
  r.dram_bytes = sm.dram_bytes;
  r.ipc = sm.ipc();
  for (int i = 0; i < sim::kNumOpcodes; ++i) {
    if (sm.issued_by_opcode[i] == 0) continue;
    r.issued_by_opcode[sim::opcode_name(static_cast<sim::Opcode>(i))] =
        sm.issued_by_opcode[i];
  }
  for (int i = 0; i < sim::kNumUnits; ++i) {
    if (sm.unit_busy_cycles[i] == 0) continue;
    r.unit_busy_cycles[sim::unit_name(static_cast<sim::ExecUnit>(i))] =
        sm.unit_busy_cycles[i];
  }
  return r;
}

KernelReport make_kernel_report(const core::KernelTiming& timing) {
  KernelReport r;
  r.name = timing.name;
  r.kind = nn::kernel_kind_name(timing.kind);
  r.cycles = timing.cycles;
  r.instructions = timing.instructions;
  r.ipc = timing.ipc;
  r.int_util = timing.int_util;
  r.fp_util = timing.fp_util;
  r.tc_util = timing.tc_util;
  r.energy_mj = timing.energy_mj;
  r.sm = make_sm_stats_report(timing.sm);
  return r;
}

StrategyReport make_strategy_report(const core::InferenceTiming& timing,
                                    const arch::OrinSpec& spec) {
  StrategyReport r;
  r.strategy = core::strategy_name(timing.strategy);
  r.total_cycles = timing.total_cycles;
  r.gemm_cycles = timing.gemm_cycles;
  r.cuda_cycles = timing.cuda_cycles;
  r.total_instructions = timing.total_instructions;
  r.total_ms = timing.total_ms(spec);
  r.total_energy_mj = timing.total_energy_mj;
  r.mean_ipc = timing.mean_ipc();
  for (const auto& k : timing.kernels)
    r.kernels.push_back(make_kernel_report(k));
  return r;
}

L2Report make_l2_report(const std::string& name, const sim::GpuRunResult& g) {
  L2Report r;
  r.name = name;
  r.cycles = g.cycles;
  r.l2_hits = g.l2_hits;
  r.l2_misses = g.l2_misses;
  r.l2_hit_rate = g.l2_hit_rate;
  r.total = make_sm_stats_report(g.total);
  return r;
}

std::map<std::string, std::string> build_metadata() {
  return {{"compiler", compiler_id()}, {"build", build_mode()}};
}

Json to_json(const SmStatsReport& r) {
  Json j = Json::object();
  j.set("cycles", Json(r.cycles));
  j.set("instructions_issued", Json(r.instructions_issued));
  j.set("dram_bytes", Json(r.dram_bytes));
  j.set("ipc", Json(r.ipc));
  j.set("issued_by_opcode", counters_to_json(r.issued_by_opcode));
  j.set("unit_busy_cycles", counters_to_json(r.unit_busy_cycles));
  return j;
}

Json to_json(const KernelReport& r) {
  Json j = Json::object();
  j.set("name", Json(r.name));
  j.set("kind", Json(r.kind));
  j.set("cycles", Json(r.cycles));
  j.set("instructions", Json(r.instructions));
  j.set("ipc", Json(r.ipc));
  j.set("int_util", Json(r.int_util));
  j.set("fp_util", Json(r.fp_util));
  j.set("tc_util", Json(r.tc_util));
  j.set("energy_mj", Json(r.energy_mj));
  j.set("sm", to_json(r.sm));
  return j;
}

Json to_json(const StrategyReport& r) {
  Json j = Json::object();
  j.set("strategy", Json(r.strategy));
  j.set("total_cycles", Json(r.total_cycles));
  j.set("gemm_cycles", Json(r.gemm_cycles));
  j.set("cuda_cycles", Json(r.cuda_cycles));
  j.set("total_instructions", Json(r.total_instructions));
  j.set("total_ms", Json(r.total_ms));
  j.set("total_energy_mj", Json(r.total_energy_mj));
  j.set("mean_ipc", Json(r.mean_ipc));
  Json kernels = Json::array();
  for (const auto& k : r.kernels) kernels.push_back(to_json(k));
  j.set("kernels", std::move(kernels));
  return j;
}

Json to_json(const L2Report& r) {
  Json j = Json::object();
  j.set("name", Json(r.name));
  j.set("cycles", Json(r.cycles));
  j.set("l2_hits", Json(r.l2_hits));
  j.set("l2_misses", Json(r.l2_misses));
  j.set("l2_hit_rate", Json(r.l2_hit_rate));
  j.set("total", to_json(r.total));
  return j;
}

Json to_json(const ServePointReport& r) {
  Json j = Json::object();
  j.set("strategy", Json(r.strategy));
  j.set("policy", Json(r.policy));
  j.set("arrival", Json(r.arrival));
  j.set("rate_rps", Json(r.rate_rps));
  j.set("offered", Json(r.offered));
  j.set("completed", Json(r.completed));
  j.set("dropped", Json(r.dropped));
  j.set("batch_failures", Json(r.batch_failures));
  j.set("retries", Json(r.retries));
  j.set("requeued", Json(r.requeued));
  j.set("shed", Json(r.shed));
  j.set("failovers", Json(r.failovers));
  j.set("degraded_s", Json(r.degraded_s));
  j.set("batches", Json(r.batches));
  j.set("mean_batch_size", Json(r.mean_batch_size));
  j.set("drop_rate", Json(r.drop_rate));
  j.set("throughput_rps", Json(r.throughput_rps));
  j.set("goodput_rps", Json(r.goodput_rps));
  j.set("utilization", Json(r.utilization));
  j.set("mean_queue_depth", Json(r.mean_queue_depth));
  j.set("max_queue_depth", Json(r.max_queue_depth));
  j.set("p50_us", Json(r.p50_us));
  j.set("p90_us", Json(r.p90_us));
  j.set("p95_us", Json(r.p95_us));
  j.set("p99_us", Json(r.p99_us));
  return j;
}

Json to_json(const FleetPointReport& r) {
  Json j = Json::object();
  j.set("strategy", Json(r.strategy));
  j.set("route", Json(r.route));
  j.set("policy", Json(r.policy));
  j.set("arrival", Json(r.arrival));
  j.set("rate_rps", Json(r.rate_rps));
  j.set("offered", Json(r.offered));
  j.set("completed", Json(r.completed));
  j.set("dropped", Json(r.dropped));
  j.set("shed", Json(r.shed));
  j.set("batches", Json(r.batches));
  j.set("mean_batch_size", Json(r.mean_batch_size));
  j.set("drop_rate", Json(r.drop_rate));
  j.set("throughput_rps", Json(r.throughput_rps));
  j.set("goodput_rps", Json(r.goodput_rps));
  j.set("utilization", Json(r.utilization));
  j.set("mean_queue_depth", Json(r.mean_queue_depth));
  j.set("max_queue_depth", Json(r.max_queue_depth));
  j.set("p50_us", Json(r.p50_us));
  j.set("p90_us", Json(r.p90_us));
  j.set("p95_us", Json(r.p95_us));
  j.set("p99_us", Json(r.p99_us));
  j.set("scale_ups", Json(r.scale_ups));
  j.set("scale_downs", Json(r.scale_downs));
  j.set("shard_util_min", Json(r.shard_util_min));
  j.set("shard_util_max", Json(r.shard_util_max));
  return j;
}

Json to_json(const SchedPointReport& r) {
  Json j = Json::object();
  j.set("mode", Json(r.mode));
  j.set("scope", Json(r.scope));
  j.set("group", Json(r.group));
  j.set("rate_rps", Json(r.rate_rps));
  j.set("offered", Json(r.offered));
  j.set("completed", Json(r.completed));
  j.set("dropped", Json(r.dropped));
  j.set("preemptions", Json(r.preemptions));
  j.set("model_swaps", Json(r.model_swaps));
  j.set("swap_us", Json(r.swap_us));
  j.set("batches", Json(r.batches));
  j.set("mean_batch_size", Json(r.mean_batch_size));
  j.set("drop_rate", Json(r.drop_rate));
  j.set("throughput_rps", Json(r.throughput_rps));
  j.set("goodput_rps", Json(r.goodput_rps));
  j.set("utilization", Json(r.utilization));
  j.set("mean_queue_depth", Json(r.mean_queue_depth));
  j.set("max_queue_depth", Json(r.max_queue_depth));
  j.set("p50_us", Json(r.p50_us));
  j.set("p90_us", Json(r.p90_us));
  j.set("p95_us", Json(r.p95_us));
  j.set("p99_us", Json(r.p99_us));
  return j;
}

Json to_json(const FleetSchedPointReport& r) {
  Json j = Json::object();
  j.set("mode", Json(r.mode));
  j.set("route", Json(r.route));
  j.set("scope", Json(r.scope));
  j.set("group", Json(r.group));
  j.set("rate_rps", Json(r.rate_rps));
  j.set("offered", Json(r.offered));
  j.set("completed", Json(r.completed));
  j.set("dropped", Json(r.dropped));
  j.set("preemptions", Json(r.preemptions));
  j.set("model_swaps", Json(r.model_swaps));
  j.set("cold_swaps", Json(r.cold_swaps));
  j.set("swap_us", Json(r.swap_us));
  j.set("batches", Json(r.batches));
  j.set("mean_batch_size", Json(r.mean_batch_size));
  j.set("drop_rate", Json(r.drop_rate));
  j.set("throughput_rps", Json(r.throughput_rps));
  j.set("goodput_rps", Json(r.goodput_rps));
  j.set("utilization", Json(r.utilization));
  j.set("mean_queue_depth", Json(r.mean_queue_depth));
  j.set("max_queue_depth", Json(r.max_queue_depth));
  j.set("p50_us", Json(r.p50_us));
  j.set("p90_us", Json(r.p90_us));
  j.set("p95_us", Json(r.p95_us));
  j.set("p99_us", Json(r.p99_us));
  j.set("scale_ups", Json(r.scale_ups));
  j.set("scale_downs", Json(r.scale_downs));
  j.set("shard_util_min", Json(r.shard_util_min));
  j.set("shard_util_max", Json(r.shard_util_max));
  return j;
}

Json to_json(const GemmPointReport& r) {
  Json j = Json::object();
  j.set("name", Json(r.name));
  j.set("dtype", Json(r.dtype));
  j.set("engine", Json(r.engine));
  j.set("simd_level", Json(r.simd_level));
  j.set("m", Json(static_cast<std::int64_t>(r.m)));
  j.set("k", Json(static_cast<std::int64_t>(r.k)));
  j.set("n", Json(static_cast<std::int64_t>(r.n)));
  j.set("repeats", Json(static_cast<std::int64_t>(r.repeats)));
  j.set("gflops", Json(r.gflops));
  j.set("ref_gflops", Json(r.ref_gflops));
  j.set("speedup", Json(r.speedup));
  j.set("max_abs_diff", Json(r.max_abs_diff));
  j.set("min_speedup", Json(r.min_speedup));
  return j;
}

Json to_json(const SimLoopPointReport& r) {
  Json j = Json::object();
  j.set("name", Json(r.name));
  j.set("cycles", Json(r.cycles));
  j.set("instructions", Json(r.instructions));
  j.set("repeats", Json(static_cast<std::int64_t>(r.repeats)));
  j.set("ref_seconds", Json(r.ref_seconds));
  j.set("packed_seconds", Json(r.packed_seconds));
  j.set("speedup", Json(r.speedup));
  j.set("stats_identical", Json(r.stats_identical));
  j.set("min_speedup", Json(r.min_speedup));
  return j;
}

Json to_json(const RunReport& r) {
  Json j = Json::object();
  j.set("schema_version", Json(static_cast<std::int64_t>(r.schema_version)));
  j.set("schema_minor_version",
        Json(static_cast<std::int64_t>(r.schema_minor_version)));
  j.set("tool", Json(r.tool));
  j.set("host_wall_seconds", Json(r.host_wall_seconds));
  j.set("threads", Json(static_cast<std::int64_t>(r.threads)));
  Json meta = Json::object();
  for (const auto& [k, v] : r.meta) meta.set(k, Json(v));
  j.set("meta", std::move(meta));
  Json strategies = Json::array();
  for (const auto& s : r.strategies) strategies.push_back(to_json(s));
  j.set("strategies", std::move(strategies));
  Json l2 = Json::array();
  for (const auto& g : r.l2_runs) l2.push_back(to_json(g));
  j.set("l2_runs", std::move(l2));
  Json serve = Json::array();
  for (const auto& p : r.serve_points) serve.push_back(to_json(p));
  j.set("serve_points", std::move(serve));
  Json gemm = Json::array();
  for (const auto& p : r.gemm_points) gemm.push_back(to_json(p));
  j.set("gemm_points", std::move(gemm));
  Json fleet = Json::array();
  for (const auto& p : r.fleet_points) fleet.push_back(to_json(p));
  j.set("fleet_points", std::move(fleet));
  Json sched = Json::array();
  for (const auto& p : r.sched_points) sched.push_back(to_json(p));
  j.set("sched_points", std::move(sched));
  // Written only when present so pre-minor-9 baselines stay byte-for-byte
  // reproducible without regeneration.
  if (!r.fleet_sched_points.empty()) {
    Json fleet_sched = Json::array();
    for (const auto& p : r.fleet_sched_points)
      fleet_sched.push_back(to_json(p));
    j.set("fleet_sched_points", std::move(fleet_sched));
  }
  Json sim_loop = Json::array();
  for (const auto& p : r.sim_loop_points) sim_loop.push_back(to_json(p));
  j.set("sim_loop_points", std::move(sim_loop));
  return j;
}

namespace {

SmStatsReport sm_stats_from_json(const Json& j) {
  SmStatsReport r;
  r.cycles = j.uint_at("cycles");
  r.instructions_issued = j.uint_at("instructions_issued");
  r.dram_bytes = j.uint_at("dram_bytes");
  r.ipc = j.double_at("ipc");
  r.issued_by_opcode = counters_from_json(j.at("issued_by_opcode"));
  r.unit_busy_cycles = counters_from_json(j.at("unit_busy_cycles"));
  return r;
}

KernelReport kernel_from_json(const Json& j) {
  KernelReport r;
  r.name = j.string_at("name");
  r.kind = j.string_at("kind");
  r.cycles = j.uint_at("cycles");
  r.instructions = j.uint_at("instructions");
  r.ipc = j.double_at("ipc");
  r.int_util = j.double_at("int_util");
  r.fp_util = j.double_at("fp_util");
  r.tc_util = j.double_at("tc_util");
  r.energy_mj = j.double_at("energy_mj");
  r.sm = sm_stats_from_json(j.at("sm"));
  return r;
}

StrategyReport strategy_from_json(const Json& j) {
  StrategyReport r;
  r.strategy = j.string_at("strategy");
  r.total_cycles = j.uint_at("total_cycles");
  r.gemm_cycles = j.uint_at("gemm_cycles");
  r.cuda_cycles = j.uint_at("cuda_cycles");
  r.total_instructions = j.uint_at("total_instructions");
  r.total_ms = j.double_at("total_ms");
  r.total_energy_mj = j.double_at("total_energy_mj");
  r.mean_ipc = j.double_at("mean_ipc");
  const Json& kernels = j.at("kernels");
  for (std::size_t i = 0; i < kernels.size(); ++i)
    r.kernels.push_back(kernel_from_json(kernels[i]));
  return r;
}

ServePointReport serve_point_from_json(const Json& j) {
  ServePointReport r;
  r.strategy = j.string_at("strategy");
  r.policy = j.string_at("policy");
  r.arrival = j.string_at("arrival");
  r.rate_rps = j.double_at("rate_rps");
  r.offered = j.uint_at("offered");
  r.completed = j.uint_at("completed");
  r.dropped = j.uint_at("dropped");
  // Minor-4 additions: absent in pre-fault documents, defaulting to the
  // fault-free zeros.
  if (j.contains("batch_failures"))
    r.batch_failures = j.uint_at("batch_failures");
  if (j.contains("retries")) r.retries = j.uint_at("retries");
  if (j.contains("requeued")) r.requeued = j.uint_at("requeued");
  if (j.contains("shed")) r.shed = j.uint_at("shed");
  if (j.contains("failovers")) r.failovers = j.uint_at("failovers");
  if (j.contains("degraded_s")) r.degraded_s = j.double_at("degraded_s");
  r.batches = j.uint_at("batches");
  r.mean_batch_size = j.double_at("mean_batch_size");
  r.drop_rate = j.double_at("drop_rate");
  r.throughput_rps = j.double_at("throughput_rps");
  r.goodput_rps = j.double_at("goodput_rps");
  r.utilization = j.double_at("utilization");
  r.mean_queue_depth = j.double_at("mean_queue_depth");
  r.max_queue_depth = j.uint_at("max_queue_depth");
  r.p50_us = j.uint_at("p50_us");
  r.p90_us = j.uint_at("p90_us");
  r.p95_us = j.uint_at("p95_us");
  r.p99_us = j.uint_at("p99_us");
  return r;
}

FleetPointReport fleet_point_from_json(const Json& j) {
  FleetPointReport r;
  r.strategy = j.string_at("strategy");
  r.route = j.string_at("route");
  r.policy = j.string_at("policy");
  r.arrival = j.string_at("arrival");
  r.rate_rps = j.double_at("rate_rps");
  r.offered = j.uint_at("offered");
  r.completed = j.uint_at("completed");
  r.dropped = j.uint_at("dropped");
  r.shed = j.uint_at("shed");
  r.batches = j.uint_at("batches");
  r.mean_batch_size = j.double_at("mean_batch_size");
  r.drop_rate = j.double_at("drop_rate");
  r.throughput_rps = j.double_at("throughput_rps");
  r.goodput_rps = j.double_at("goodput_rps");
  r.utilization = j.double_at("utilization");
  r.mean_queue_depth = j.double_at("mean_queue_depth");
  r.max_queue_depth = j.uint_at("max_queue_depth");
  r.p50_us = j.uint_at("p50_us");
  r.p90_us = j.uint_at("p90_us");
  r.p95_us = j.uint_at("p95_us");
  r.p99_us = j.uint_at("p99_us");
  r.scale_ups = j.uint_at("scale_ups");
  r.scale_downs = j.uint_at("scale_downs");
  r.shard_util_min = j.double_at("shard_util_min");
  r.shard_util_max = j.double_at("shard_util_max");
  return r;
}

SchedPointReport sched_point_from_json(const Json& j) {
  SchedPointReport r;
  r.mode = j.string_at("mode");
  r.scope = j.string_at("scope");
  r.group = j.string_at("group");
  r.rate_rps = j.double_at("rate_rps");
  r.offered = j.uint_at("offered");
  r.completed = j.uint_at("completed");
  r.dropped = j.uint_at("dropped");
  r.preemptions = j.uint_at("preemptions");
  r.model_swaps = j.uint_at("model_swaps");
  r.swap_us = j.uint_at("swap_us");
  r.batches = j.uint_at("batches");
  r.mean_batch_size = j.double_at("mean_batch_size");
  r.drop_rate = j.double_at("drop_rate");
  r.throughput_rps = j.double_at("throughput_rps");
  r.goodput_rps = j.double_at("goodput_rps");
  r.utilization = j.double_at("utilization");
  r.mean_queue_depth = j.double_at("mean_queue_depth");
  r.max_queue_depth = j.uint_at("max_queue_depth");
  r.p50_us = j.uint_at("p50_us");
  r.p90_us = j.uint_at("p90_us");
  r.p95_us = j.uint_at("p95_us");
  r.p99_us = j.uint_at("p99_us");
  return r;
}

FleetSchedPointReport fleet_sched_point_from_json(const Json& j) {
  FleetSchedPointReport r;
  r.mode = j.string_at("mode");
  r.route = j.string_at("route");
  r.scope = j.string_at("scope");
  r.group = j.string_at("group");
  r.rate_rps = j.double_at("rate_rps");
  r.offered = j.uint_at("offered");
  r.completed = j.uint_at("completed");
  r.dropped = j.uint_at("dropped");
  r.preemptions = j.uint_at("preemptions");
  r.model_swaps = j.uint_at("model_swaps");
  r.cold_swaps = j.uint_at("cold_swaps");
  r.swap_us = j.uint_at("swap_us");
  r.batches = j.uint_at("batches");
  r.mean_batch_size = j.double_at("mean_batch_size");
  r.drop_rate = j.double_at("drop_rate");
  r.throughput_rps = j.double_at("throughput_rps");
  r.goodput_rps = j.double_at("goodput_rps");
  r.utilization = j.double_at("utilization");
  r.mean_queue_depth = j.double_at("mean_queue_depth");
  r.max_queue_depth = j.uint_at("max_queue_depth");
  r.p50_us = j.uint_at("p50_us");
  r.p90_us = j.uint_at("p90_us");
  r.p95_us = j.uint_at("p95_us");
  r.p99_us = j.uint_at("p99_us");
  r.scale_ups = j.uint_at("scale_ups");
  r.scale_downs = j.uint_at("scale_downs");
  r.shard_util_min = j.double_at("shard_util_min");
  r.shard_util_max = j.double_at("shard_util_max");
  return r;
}

GemmPointReport gemm_point_from_json(const Json& j) {
  GemmPointReport r;
  r.name = j.string_at("name");
  r.dtype = j.string_at("dtype");
  r.engine = j.string_at("engine");
  // Minor-6 addition: absent (empty) in pre-bump documents and stripped
  // from baselines.
  if (const Json* s = j.find("simd_level"); s != nullptr)
    r.simd_level = s->as_string();
  r.m = static_cast<int>(j.int_at("m"));
  r.k = static_cast<int>(j.int_at("k"));
  r.n = static_cast<int>(j.int_at("n"));
  r.repeats = static_cast<int>(j.int_at("repeats"));
  r.gflops = j.double_at("gflops");
  r.ref_gflops = j.double_at("ref_gflops");
  r.speedup = j.double_at("speedup");
  r.max_abs_diff = j.double_at("max_abs_diff");
  r.min_speedup = j.double_at("min_speedup");
  return r;
}

SimLoopPointReport sim_loop_point_from_json(const Json& j) {
  SimLoopPointReport r;
  r.name = j.string_at("name");
  r.cycles = j.uint_at("cycles");
  r.instructions = j.uint_at("instructions");
  r.repeats = static_cast<int>(j.int_at("repeats"));
  r.ref_seconds = j.double_at("ref_seconds");
  r.packed_seconds = j.double_at("packed_seconds");
  r.speedup = j.double_at("speedup");
  r.stats_identical = j.at("stats_identical").as_bool();
  r.min_speedup = j.double_at("min_speedup");
  return r;
}

L2Report l2_from_json(const Json& j) {
  L2Report r;
  r.name = j.string_at("name");
  r.cycles = j.uint_at("cycles");
  r.l2_hits = j.uint_at("l2_hits");
  r.l2_misses = j.uint_at("l2_misses");
  r.l2_hit_rate = j.double_at("l2_hit_rate");
  r.total = sm_stats_from_json(j.at("total"));
  return r;
}

}  // namespace

RunReport run_report_from_json(const Json& j) {
  RunReport r;
  r.schema_version = static_cast<int>(j.int_at("schema_version"));
  VITBIT_CHECK_MSG(r.schema_version == kSchemaVersion,
                   "report schema version " << r.schema_version
                                            << " != expected "
                                            << kSchemaVersion);
  // Minor-version additions are optional on read: pre-bump documents (the
  // checked-in baselines) default them instead of failing.
  r.schema_minor_version =
      j.contains("schema_minor_version")
          ? static_cast<int>(j.int_at("schema_minor_version"))
          : 0;
  r.tool = j.string_at("tool");
  r.host_wall_seconds =
      j.contains("host_wall_seconds") ? j.double_at("host_wall_seconds") : 0.0;
  r.threads = j.contains("threads") ? static_cast<int>(j.int_at("threads")) : 0;
  for (const auto& [k, v] : j.at("meta").items()) r.meta[k] = v.as_string();
  const Json& strategies = j.at("strategies");
  for (std::size_t i = 0; i < strategies.size(); ++i)
    r.strategies.push_back(strategy_from_json(strategies[i]));
  const Json& l2 = j.at("l2_runs");
  for (std::size_t i = 0; i < l2.size(); ++i)
    r.l2_runs.push_back(l2_from_json(l2[i]));
  // Minor-2 addition: absent in older documents.
  if (const Json* serve = j.find("serve_points"); serve != nullptr)
    for (std::size_t i = 0; i < serve->size(); ++i)
      r.serve_points.push_back(serve_point_from_json((*serve)[i]));
  // Minor-3 addition: absent in older documents.
  if (const Json* gemm = j.find("gemm_points"); gemm != nullptr)
    for (std::size_t i = 0; i < gemm->size(); ++i)
      r.gemm_points.push_back(gemm_point_from_json((*gemm)[i]));
  // Minor-5 addition: absent in older documents.
  if (const Json* fleet = j.find("fleet_points"); fleet != nullptr)
    for (std::size_t i = 0; i < fleet->size(); ++i)
      r.fleet_points.push_back(fleet_point_from_json((*fleet)[i]));
  // Minor-7 addition: absent in older documents.
  if (const Json* sched = j.find("sched_points"); sched != nullptr)
    for (std::size_t i = 0; i < sched->size(); ++i)
      r.sched_points.push_back(sched_point_from_json((*sched)[i]));
  // Minor-8 addition: absent in older documents.
  if (const Json* sim_loop = j.find("sim_loop_points"); sim_loop != nullptr)
    for (std::size_t i = 0; i < sim_loop->size(); ++i)
      r.sim_loop_points.push_back(sim_loop_point_from_json((*sim_loop)[i]));
  // Minor-9 addition: absent in older documents (and in minor-9 documents
  // from tools that carry no scheduled-fleet points).
  if (const Json* fs = j.find("fleet_sched_points"); fs != nullptr)
    for (std::size_t i = 0; i < fs->size(); ++i)
      r.fleet_sched_points.push_back(fleet_sched_point_from_json((*fs)[i]));
  return r;
}

RunReport load_report_file(const std::string& path) {
  return run_report_from_json(load_json_file(path));
}

void save_report_file(const std::string& path, const RunReport& report) {
  save_json_file(path, to_json(report));
}

Json table_to_json(const Table& table) {
  Json j = Json::object();
  j.set("title", Json(table.title()));
  Json columns = Json::array();
  for (const auto& c : table.header_cols()) columns.push_back(Json(c));
  j.set("columns", std::move(columns));
  Json rows = Json::array();
  for (const auto& row : table.rows()) {
    Json obj = Json::object();
    for (std::size_t i = 0; i < row.size(); ++i) {
      const std::string key = i < table.header_cols().size()
                                  ? table.header_cols()[i]
                                  : "col" + std::to_string(i);
      obj.set(key, Json(row[i]));
    }
    rows.push_back(std::move(obj));
  }
  j.set("rows", std::move(rows));
  return j;
}

}  // namespace vitbit::report
