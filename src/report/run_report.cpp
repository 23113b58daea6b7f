#include "report/run_report.h"

#include <climits>
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

template <class V>
constexpr bool kIsTable = requires { V::fields(); };
template <class V>
constexpr bool kIsList = false;
template <class E>
constexpr bool kIsList<std::vector<E>> = true;
template <class V>
constexpr bool kIsMap = false;
template <class E>
constexpr bool kIsMap<std::map<std::string, E>> = true;

template <class V>
Json write(const V& v);

template <class T>
void write_fields(Json& j, const T& r) {
  for_each_field<T>([&](const auto& row) {
    j.set(row.json, write(r.*row.member));
  });
}

template <class V>
Json write(const V& v) {
  if constexpr (kIsTable<V>) {
    Json j = Json::object();
    write_fields(j, v);
    return j;
  } else if constexpr (kIsList<V>) {
    Json j = Json::array();
    for (const auto& e : v) j.push_back(write(e));
    return j;
  } else if constexpr (kIsMap<V>) {
    Json j = Json::object();
    for (const auto& [k, e] : v) j.set(k, Json(e));
    return j;
  } else {
    return Json(v);
  }
}

// Every key of a table is required; Json::at throws CheckError naming a
// missing one, and the accessors throw on a value of the wrong type.
template <class V>
void read(const Json& j, V& v) {
  if constexpr (kIsTable<V>) {
    for_each_field<V>([&](const auto& row) {
      read(j.at(row.json), v.*row.member);
    });
  } else if constexpr (kIsList<V>) {
    VITBIT_CHECK_MSG(j.is_array(), "JSON list is not an array");
    for (std::size_t i = 0; i < j.size(); ++i) read(j[i], v.emplace_back());
  } else if constexpr (kIsMap<V>) {
    for (const auto& [k, e] : j.items()) read(e, v[k]);
  } else if constexpr (std::is_same_v<V, std::string>) {
    v = j.as_string();
  } else if constexpr (std::is_same_v<V, bool>) {
    v = j.as_bool();
  } else if constexpr (std::is_same_v<V, double>) {
    v = j.as_double();
  } else if constexpr (std::is_same_v<V, int>) {
    const std::int64_t x = j.as_int();
    VITBIT_CHECK_MSG(x >= INT_MIN && x <= INT_MAX,
                     "JSON value " << x << " does not fit an int");
    v = static_cast<int>(x);
  } else {
    static_assert(std::is_same_v<V, std::uint64_t>);
    v = j.as_uint();
  }
}

}  // namespace

std::string key_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
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

GemmPointReport make_gemm_point(const GemmShapeSpec& shape,
                                const std::string& dtype,
                                const std::string& engine, SimdLevel level,
                                int repeats, const GemmMeasurement& m) {
  GemmPointReport p;
  p.name = shape.name;
  p.dtype = dtype;
  p.engine = engine;
  p.simd_level = simd_level_name(level);
  p.m = shape.m;
  p.k = shape.k;
  p.n = shape.n;
  p.repeats = repeats;
  p.gflops = m.engine_gflops;
  p.ref_gflops = m.ref_gflops;
  p.speedup = m.speedup;
  p.max_abs_diff = m.max_abs_diff;
  return p;
}

std::map<std::string, std::string> build_metadata() {
  return {{"compiler", compiler_id()}, {"build", build_mode()}};
}

Json to_json(const RunReport& r) {
  Json j = Json::object();
  j.set("schema_version", Json(kSchemaVersion));
  write_fields(j, r);
  return j;
}

RunReport run_report_from_json(const Json& j) {
  const std::int64_t version = j.int_at("schema_version");
  VITBIT_CHECK_MSG(version == kSchemaVersion,
                   "report schema version " << version << " != expected "
                                            << kSchemaVersion);
  RunReport r;
  read(j, r);
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
