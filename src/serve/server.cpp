#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.h"
#include "common/cli.h"
#include "nn/vit_model.h"

namespace vitbit::serve {

namespace {

// A timed inference in integer virtual microseconds at the spec clock
// (clock_ghz cycles per nanosecond).
std::uint64_t latency_us_of(const core::InferenceTiming& t,
                            const arch::OrinSpec& spec) {
  return static_cast<std::uint64_t>(std::llround(
      static_cast<double>(t.total_cycles) / (spec.clock_ghz * 1e3)));
}

}  // namespace

std::uint64_t LatencyTable::latency_us(std::size_t batch) const {
  VITBIT_CHECK_MSG(batch >= 1 && batch < batch_latency_us.size(),
                   "batch size " << batch << " outside latency table [1, "
                                 << max_batch() << "]");
  return batch_latency_us[batch];
}

std::vector<std::vector<LatencyTable>> build_model_latency_tables(
    const std::vector<LatencyTableModel>& models, const arch::OrinSpec& spec,
    const arch::Calibration& calib, int max_batch, ThreadPool* pool) {
  for (const auto& model : models)
    VITBIT_CHECK_MSG(!model.strategies.empty(), "need >= 1 strategy");
  VITBIT_CHECK_MSG(max_batch >= 1, "max_batch must be >= 1");
  const auto mb = static_cast<std::size_t>(max_batch);
  // Every (model, batch) log, then one job per (model, strategy, batch).
  std::vector<nn::KernelLog> logs;
  logs.reserve(models.size() * mb);
  for (const auto& model : models)
    for (int b = 1; b <= max_batch; ++b)
      logs.push_back(model.log_for_batch(b));
  std::vector<core::InferenceJob> jobs;
  for (std::size_t m = 0; m < models.size(); ++m)
    for (const auto s : models[m].strategies)
      for (std::size_t b = 0; b < mb; ++b)
        jobs.push_back({&logs[m * mb + b], s, models[m].cfg});
  const auto timings = core::time_inferences(jobs, spec, calib, pool);

  std::vector<std::vector<LatencyTable>> tables(models.size());
  std::size_t next = 0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (const auto s : models[m].strategies) {
      LatencyTable& table = tables[m].emplace_back();
      table.strategy = s;
      table.batch_latency_us.assign(mb + 1, 0);
      for (std::size_t b = 1; b <= mb; ++b) {
        const auto us = latency_us_of(timings[next++], spec);
        VITBIT_CHECK_MSG(
            us >= 1, "batch " << b << " latency rounds to zero microseconds");
        table.batch_latency_us[b] = us;
      }
    }
  }
  return tables;
}

std::vector<LatencyTable> build_latency_tables(
    const nn::VitConfig& model, const std::vector<core::Strategy>& strategies,
    const core::StrategyConfig& cfg, const arch::OrinSpec& spec,
    const arch::Calibration& calib, int max_batch, ThreadPool* pool) {
  const KernelLogForBatch log_for_batch = [&model](int batch) {
    return nn::build_kernel_log(model, batch);
  };
  auto tables = build_model_latency_tables({{log_for_batch, strategies, cfg}},
                                           spec, calib, max_batch, pool);
  return std::move(tables.front());
}

void AutoscaleConfig::validate() const {
  VITBIT_CHECK_MSG(min_replicas >= 1, "min_replicas must be >= 1");
  VITBIT_CHECK_MSG(max_replicas >= min_replicas,
                   "max_replicas " << max_replicas << " below min_replicas "
                                   << min_replicas);
  if (!enabled()) return;
  VITBIT_CHECK_MSG(interval_us >= 1, "autoscale interval must be >= 1 us");
  VITBIT_CHECK_MSG(down_queue_depth <= up_queue_depth,
                   "down_queue_depth " << down_queue_depth
                                       << " above up_queue_depth "
                                       << up_queue_depth
                                       << " (hysteresis inverted)");
  VITBIT_CHECK_MSG(std::isfinite(up_preempt_per_s) && up_preempt_per_s >= 0.0,
                   "up_preempt_per_s must be finite and >= 0");
  VITBIT_CHECK_MSG(std::isfinite(up_slo_miss_rate) && up_slo_miss_rate >= 0.0,
                   "up_slo_miss_rate must be finite and >= 0");
}

std::vector<double> parse_number_list(const std::string& spec,
                                      const char* what,
                                      bool require_positive) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    VITBIT_CHECK_MSG(!item.empty(),
                     "empty entry in " << what << " list: " << spec);
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    // strtod happily parses "inf"/"nan" and saturates overflow to HUGE_VAL,
    // so the finiteness check is load-bearing, not belt-and-braces.
    const bool parsed = end != nullptr && *end == '\0' && std::isfinite(v);
    if (require_positive) {
      VITBIT_CHECK_MSG(parsed && v > 0.0,
                       what << "-list entry is not a positive finite number: "
                            << item);
    } else {
      VITBIT_CHECK_MSG(parsed && v >= 0.0,
                       what
                           << "-list entry is not a nonnegative finite number: "
                           << item);
    }
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<double> parse_rate_list(const std::string& spec) {
  return parse_number_list(spec, "rate", /*require_positive=*/true);
}

std::vector<std::string> parse_name_list(const std::string& spec,
                                         const char* what) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    VITBIT_CHECK_MSG(!item.empty(),
                     "empty entry in " << what << " list: " << spec);
    VITBIT_CHECK_MSG(std::find(out.begin(), out.end(), item) == out.end(),
                     "duplicate " << what << " in list: " << item);
    out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<double> parse_weight_list(const std::string& spec) {
  return parse_number_list(spec, "weight", /*require_positive=*/true);
}

std::vector<double> parse_fraction_list(const std::string& spec,
                                        const char* what) {
  auto out = parse_number_list(spec, what, /*require_positive=*/false);
  double sum = 0.0;
  for (const double v : out) sum += v;
  VITBIT_CHECK_MSG(sum > 0.0, what << " list sums to zero: " << spec);
  // Callers divide by the sum: an overflowed one makes every share 0.
  VITBIT_CHECK_MSG(std::isfinite(sum),
                   what << " list sum overflows a double: " << spec);
  return out;
}

template <typename T>
T get_flag(const Cli& cli, const std::string& name, T def, T lo) {
  constexpr auto hi = static_cast<std::int64_t>(std::min<std::uint64_t>(
      std::numeric_limits<T>::max(), std::numeric_limits<std::int64_t>::max()));
  const std::int64_t v = cli.get_int(name, static_cast<std::int64_t>(def));
  VITBIT_CHECK_MSG(v >= static_cast<std::int64_t>(lo) && v <= hi,
                   "--" << name << " must be in [" << lo << ", " << hi
                        << "], got " << cli.get(name, ""));
  return static_cast<T>(v);
}

template int get_flag<int>(const Cli&, const std::string&, int, int);
template std::uint64_t get_flag<std::uint64_t>(const Cli&, const std::string&,
                                               std::uint64_t, std::uint64_t);

core::Strategy parse_strategy(const std::string& name, const char* what) {
  for (const auto s : core::all_strategies())
    if (name == core::strategy_name(s)) return s;
  VITBIT_CHECK_MSG(false, "unknown " << what << ": " << name);
  return core::Strategy::kTC;
}

}  // namespace vitbit::serve
