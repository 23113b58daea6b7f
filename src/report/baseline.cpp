#include "report/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <type_traits>

#include "common/table.h"

namespace vitbit::report {

namespace {

// Fixed tolerances of the gate classes the command line does not set.
constexpr double kEnergyTolerance = 0.05;
constexpr double kL2HitRateTolerance = 0.01;

// Meta keys that describe the toolchain, not the workload: recorded for
// humans, never gated on (the simulator is deterministic across them).
bool informational_meta(const std::string& key) {
  return key == "compiler" || key == "build" || key == "tool" ||
         key == "generated_by";
}

std::string fmt_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void compare_metric(std::vector<MetricDelta>& out, const std::string& metric,
                    double baseline, double fresh, double tolerance) {
  MetricDelta d;
  d.metric = metric;
  d.baseline = baseline;
  d.fresh = fresh;
  d.rel_delta = relative_delta(baseline, fresh);
  d.tolerance = tolerance;
  // Strictly greater: a delta exactly at the tolerance passes.
  d.violated = d.rel_delta > tolerance;
  out.push_back(std::move(d));
}

void add_missing(std::vector<MetricDelta>& out, const std::string& metric) {
  MetricDelta d;
  d.metric = metric;
  d.violated = true;
  d.note = "missing from fresh report";
  out.push_back(std::move(d));
}

void add_new(std::vector<MetricDelta>& out, const std::string& metric) {
  MetricDelta d;
  d.metric = metric;
  d.note = "new metric (absent from baseline)";
  out.push_back(std::move(d));
}

double tolerance(Gate gate, const ToleranceSpec& tol) {
  switch (gate) {
    case Gate::kCycles:
      return tol.cycles;
    case Gate::kIpc:
      return tol.ipc;
    case Gate::kServe:
      return tol.serve;
    case Gate::kEnergy:
      return kEnergyTolerance;
    case Gate::kL2:
      return kL2HitRateTolerance;
    default:
      return 0.0;  // kExact
  }
}

// The value of the numeric field of `r` whose JSON name is `json`.
template <class T>
double numeric_field(const T& r, std::string_view json) {
  double v = 0.0;
  for_each_field<T>([&](const auto& row) {
    using M = std::remove_cvref_t<decltype(r.*row.member)>;
    if constexpr (std::is_arithmetic_v<M>)
      if (json == row.json) v = static_cast<double>(r.*row.member);
  });
  return v;
}

template <class T>
void compare(std::vector<MetricDelta>& out, const T& base, const T& fresh,
             const std::string& path, const ToleranceSpec& tol);

template <class T, class M>
void compare_row(std::vector<MetricDelta>& out, const Field<T, M>& row,
                 const T& base, const T& fresh, const std::string& path,
                 const ToleranceSpec& tol) {
  const M& b = base.*row.member;
  const M& f = fresh.*row.member;
  if constexpr (std::is_same_v<M, std::map<std::string, std::string>>) {
    // Workload metadata must match exactly; toolchain keys are
    // informational.
    if (row.gate != Gate::kExact) return;
    for (const auto& [k, v] : b) {
      if (informational_meta(k)) continue;
      const std::string metric = path + row.json + "." + k;
      const auto it = f.find(k);
      if (it == f.end()) {
        add_missing(out, metric);
      } else if (it->second != v) {
        MetricDelta d;
        d.metric = metric;
        d.violated = true;
        d.note = "baseline '" + v + "' != fresh '" + it->second + "'";
        out.push_back(std::move(d));
      }
    }
  } else if constexpr (std::is_arithmetic_v<M>) {
    const std::string metric = path + (row.metric ? row.metric : row.json);
    if (row.gate == Gate::kFloor) {
      // The measured value is machine-dependent and cleared in baselines;
      // the gate is one-sided against the floor recorded at --update time.
      if (!(b > 0)) return;
      MetricDelta d;
      d.metric = metric;
      d.baseline = b;
      d.fresh = numeric_field(fresh, row.metric);
      d.violated = d.fresh < d.baseline;
      d.note = d.violated ? std::string("below ") + row.json + " floor"
                          : "one-sided floor";
      out.push_back(std::move(d));
    } else if (row.gate != Gate::kKey && row.gate != Gate::kUngated &&
               row.gate != Gate::kHostOnly) {
      compare_metric(out, metric, static_cast<double>(b),
                     static_cast<double>(f), tolerance(row.gate, tol));
    }
  }
}

template <class T, class E>
void compare_row(std::vector<MetricDelta>& out, const Section<T, E>& row,
                 const T& base, const T& fresh, const std::string& path,
                 const ToleranceSpec& tol) {
  const std::string prefix =
      path + row.prefix + (*row.prefix != '\0' ? "." : "");
  const auto& b = base.*row.member;
  const auto& f = fresh.*row.member;
  for (const E& entry : b) {
    const std::string k = key(entry);
    if (const E* match = find_point(f, k))
      compare(out, entry, *match, prefix + k + ".", tol);
    else
      add_missing(out, prefix + k + "." + row.presence);
  }
  for (const E& entry : f) {
    const std::string k = key(entry);
    if (find_point(b, k) == nullptr)
      add_new(out, prefix + k + "." + row.presence);
  }
}

template <class T>
void compare(std::vector<MetricDelta>& out, const T& base, const T& fresh,
             const std::string& path, const ToleranceSpec& tol) {
  for_each_field<T>([&](const auto& row) {
    compare_row(out, row, base, fresh, path, tol);
  });
}

template <class T>
void clear_host_only(T& r) {
  for_each_field<T>([&](const auto& row) {
    auto& v = r.*row.member;
    if constexpr (requires { row.gate; }) {
      if (row.gate == Gate::kHostOnly) v = {};
    } else {
      for (auto& entry : v) clear_host_only(entry);
    }
  });
}

}  // namespace

double relative_delta(double baseline, double fresh) {
  const double diff = std::fabs(fresh - baseline);
  if (diff == 0.0) return 0.0;
  const double denom = std::max(std::fabs(baseline), 1e-12);
  return diff / denom;
}

bool BaselineCheckResult::ok() const {
  for (const auto& d : deltas)
    if (d.violated) return false;
  return true;
}

std::vector<MetricDelta> BaselineCheckResult::violations() const {
  std::vector<MetricDelta> out;
  for (const auto& d : deltas)
    if (d.violated) out.push_back(d);
  return out;
}

std::string BaselineCheckResult::first_violation() const {
  for (const auto& d : deltas)
    if (d.violated) return d.metric;
  return "";
}

void BaselineCheckResult::render(std::ostream& os,
                                 bool violations_only) const {
  Table t(violations_only ? "baseline violations" : "baseline deltas");
  t.header({"metric", "baseline", "fresh", "delta %", "tol %", "status"});
  for (const auto& d : deltas) {
    if (violations_only && !d.violated) continue;
    t.row()
        .cell(d.metric)
        .cell(fmt_value(d.baseline))
        .cell(fmt_value(d.fresh))
        .cell(d.rel_delta * 100.0, 3)
        .cell(d.tolerance * 100.0, 3)
        .cell(d.violated ? ("FAIL " + d.note) : (d.note.empty() ? "ok"
                                                                : d.note));
  }
  t.print(os);
}

BaselineCheckResult check_against_baseline(const RunReport& fresh,
                                           const RunReport& baseline,
                                           const ToleranceSpec& tol) {
  BaselineCheckResult result;
  compare(result.deltas, baseline, fresh, "", tol);
  return result;
}

RunReport strip_host_only(RunReport fresh) {
  clear_host_only(fresh);
  return fresh;
}

}  // namespace vitbit::report
