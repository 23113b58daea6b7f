// Tolerance-based regression gate over run reports.
//
// A fresh RunReport is diffed against a checked-in baseline report; each
// compared metric yields a MetricDelta, and any relative drift strictly
// beyond its tolerance is a violation. Drift is flagged in *both*
// directions: an improvement also trips the gate so baselines get
// regenerated and the perf trajectory stays recorded (ROADMAP north star).
// tools/check_regression turns the result into a CI exit code.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "report/run_report.h"

namespace vitbit::report {

// Relative tolerances of the gate classes the command line sets (0.02 ==
// +-2%). The other classes have fixed tolerances (see report::Gate).
struct ToleranceSpec {
  double cycles = 0.02;
  double ipc = 0.01;
  // Serving-simulator sweep metrics (rates, percentiles, counts). These
  // inherit drift from the memoized batch latencies, and queueing
  // amplifies a latency shift discretely near saturation, so the band is
  // wider than raw cycles.
  double serve = 0.05;
};

struct MetricDelta {
  // Dotted path naming the metric, e.g. "VitBit.total_cycles" or
  // "VitBit.kernel.layer0.attn.qkv.cycles".
  std::string metric;
  double baseline = 0.0;
  double fresh = 0.0;
  double rel_delta = 0.0;  // |fresh-baseline| / max(|baseline|, eps)
  double tolerance = 0.0;
  bool violated = false;
  std::string note;  // "missing from fresh report", "new metric", ...
};

struct BaselineCheckResult {
  std::vector<MetricDelta> deltas;

  bool ok() const;
  std::vector<MetricDelta> violations() const;
  // Names of violated metrics, for terse CI logs / exit messages.
  std::string first_violation() const;
  // Human-readable delta table (all deltas, violations marked).
  void render(std::ostream& os, bool violations_only = false) const;
};

// Relative delta with a guard against zero baselines.
double relative_delta(double baseline, double fresh);

// Compares every gated field of every entry the two reports share, by the
// reports' field tables. An entry of the baseline missing from the fresh
// report is a violation; an entry only the fresh report has is noted, not
// failed, so new code paths do not fail CI before their baseline lands.
BaselineCheckResult check_against_baseline(const RunReport& fresh,
                                           const RunReport& baseline,
                                           const ToleranceSpec& tol);

// `fresh` with every host-only field cleared: the form --update commits,
// so a regenerated baseline differs only where a simulated metric moved.
RunReport strip_host_only(RunReport fresh);

}  // namespace vitbit::report
