#include "report/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/table.h"

namespace vitbit::report {

namespace {

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

void add_new(std::vector<MetricDelta>& out, const std::string& metric,
             bool allow_new) {
  MetricDelta d;
  d.metric = metric;
  d.violated = !allow_new;
  d.note = "new metric (absent from baseline)";
  out.push_back(std::move(d));
}

void compare_strategy(std::vector<MetricDelta>& out,
                      const StrategyReport& base, const StrategyReport& fresh,
                      const ToleranceSpec& tol) {
  const std::string p = base.strategy + ".";
  compare_metric(out, p + "total_cycles",
                 static_cast<double>(base.total_cycles),
                 static_cast<double>(fresh.total_cycles), tol.cycles);
  compare_metric(out, p + "gemm_cycles", static_cast<double>(base.gemm_cycles),
                 static_cast<double>(fresh.gemm_cycles), tol.cycles);
  compare_metric(out, p + "cuda_cycles", static_cast<double>(base.cuda_cycles),
                 static_cast<double>(fresh.cuda_cycles), tol.cycles);
  compare_metric(out, p + "total_instructions",
                 static_cast<double>(base.total_instructions),
                 static_cast<double>(fresh.total_instructions),
                 tol.instructions);
  compare_metric(out, p + "total_energy_mj", base.total_energy_mj,
                 fresh.total_energy_mj, tol.energy);
  compare_metric(out, p + "mean_ipc", base.mean_ipc, fresh.mean_ipc, tol.ipc);
  if (!tol.check_kernels) return;
  std::set<std::string> base_names;
  for (const auto& bk : base.kernels) {
    base_names.insert(bk.name);
    const KernelReport* fk = nullptr;
    for (const auto& k : fresh.kernels)
      if (k.name == bk.name) {
        fk = &k;
        break;
      }
    const std::string kp = p + "kernel." + bk.name + ".";
    if (fk == nullptr) {
      add_missing(out, kp + "cycles");
      continue;
    }
    compare_metric(out, kp + "cycles", static_cast<double>(bk.cycles),
                   static_cast<double>(fk->cycles), tol.cycles);
    compare_metric(out, kp + "ipc", bk.ipc, fk->ipc, tol.ipc);
  }
  for (const auto& k : fresh.kernels)
    if (!base_names.count(k.name))
      add_new(out, p + "kernel." + k.name + ".cycles", tol.allow_new_metrics);
}

void compare_serve_point(std::vector<MetricDelta>& out,
                         const ServePointReport& base,
                         const ServePointReport& fresh,
                         const ToleranceSpec& tol) {
  const std::string p = "serve." + base.key() + ".";
  // offered/dropped count arrivals of the seeded workload — exact by
  // construction; completed and everything downstream inherit latency
  // drift through the queue dynamics.
  compare_metric(out, p + "offered", static_cast<double>(base.offered),
                 static_cast<double>(fresh.offered), tol.instructions);
  compare_metric(out, p + "completed", static_cast<double>(base.completed),
                 static_cast<double>(fresh.completed), tol.serve);
  compare_metric(out, p + "drop_rate", base.drop_rate, fresh.drop_rate,
                 tol.serve);
  compare_metric(out, p + "throughput_rps", base.throughput_rps,
                 fresh.throughput_rps, tol.serve);
  compare_metric(out, p + "goodput_rps", base.goodput_rps, fresh.goodput_rps,
                 tol.serve);
  compare_metric(out, p + "utilization", base.utilization, fresh.utilization,
                 tol.serve);
  compare_metric(out, p + "p50_us", static_cast<double>(base.p50_us),
                 static_cast<double>(fresh.p50_us), tol.serve);
  compare_metric(out, p + "p99_us", static_cast<double>(base.p99_us),
                 static_cast<double>(fresh.p99_us), tol.serve);
  // Fault-path accounting (schema minor 4). Pre-bump baselines read these
  // as zero and fault-free fresh runs report zero, so the added rows stay
  // rel_delta == 0 on the legacy gate.
  compare_metric(out, p + "batch_failures",
                 static_cast<double>(base.batch_failures),
                 static_cast<double>(fresh.batch_failures), tol.serve);
  compare_metric(out, p + "retries", static_cast<double>(base.retries),
                 static_cast<double>(fresh.retries), tol.serve);
  compare_metric(out, p + "requeued", static_cast<double>(base.requeued),
                 static_cast<double>(fresh.requeued), tol.serve);
  compare_metric(out, p + "shed", static_cast<double>(base.shed),
                 static_cast<double>(fresh.shed), tol.serve);
  compare_metric(out, p + "failovers", static_cast<double>(base.failovers),
                 static_cast<double>(fresh.failovers), tol.serve);
  compare_metric(out, p + "degraded_s", base.degraded_s, fresh.degraded_s,
                 tol.serve);
}

void compare_fleet_point(std::vector<MetricDelta>& out,
                         const FleetPointReport& base,
                         const FleetPointReport& fresh,
                         const ToleranceSpec& tol) {
  const std::string p = "fleet." + base.key() + ".";
  // offered counts arrivals of the seeded workload — exact by
  // construction; the routed queueing metrics inherit latency drift.
  compare_metric(out, p + "offered", static_cast<double>(base.offered),
                 static_cast<double>(fresh.offered), tol.instructions);
  compare_metric(out, p + "completed", static_cast<double>(base.completed),
                 static_cast<double>(fresh.completed), tol.serve);
  compare_metric(out, p + "drop_rate", base.drop_rate, fresh.drop_rate,
                 tol.serve);
  compare_metric(out, p + "throughput_rps", base.throughput_rps,
                 fresh.throughput_rps, tol.serve);
  compare_metric(out, p + "goodput_rps", base.goodput_rps, fresh.goodput_rps,
                 tol.serve);
  compare_metric(out, p + "utilization", base.utilization, fresh.utilization,
                 tol.serve);
  compare_metric(out, p + "shed", static_cast<double>(base.shed),
                 static_cast<double>(fresh.shed), tol.serve);
  compare_metric(out, p + "p50_us", static_cast<double>(base.p50_us),
                 static_cast<double>(fresh.p50_us), tol.serve);
  compare_metric(out, p + "p99_us", static_cast<double>(base.p99_us),
                 static_cast<double>(fresh.p99_us), tol.serve);
  compare_metric(out, p + "scale_ups", static_cast<double>(base.scale_ups),
                 static_cast<double>(fresh.scale_ups), tol.serve);
  compare_metric(out, p + "scale_downs",
                 static_cast<double>(base.scale_downs),
                 static_cast<double>(fresh.scale_downs), tol.serve);
  compare_metric(out, p + "shard_util_min", base.shard_util_min,
                 fresh.shard_util_min, tol.serve);
  compare_metric(out, p + "shard_util_max", base.shard_util_max,
                 fresh.shard_util_max, tol.serve);
}

void compare_sched_point(std::vector<MetricDelta>& out,
                         const SchedPointReport& base,
                         const SchedPointReport& fresh,
                         const ToleranceSpec& tol) {
  const std::string p = "sched." + base.key() + ".";
  // offered counts arrivals of the seeded mixed workload — exact by
  // construction (and conservation ties dropped to it); the scheduling
  // metrics inherit latency drift through the queue dynamics.
  compare_metric(out, p + "offered", static_cast<double>(base.offered),
                 static_cast<double>(fresh.offered), tol.instructions);
  compare_metric(out, p + "completed", static_cast<double>(base.completed),
                 static_cast<double>(fresh.completed), tol.serve);
  compare_metric(out, p + "drop_rate", base.drop_rate, fresh.drop_rate,
                 tol.serve);
  compare_metric(out, p + "throughput_rps", base.throughput_rps,
                 fresh.throughput_rps, tol.serve);
  compare_metric(out, p + "goodput_rps", base.goodput_rps, fresh.goodput_rps,
                 tol.serve);
  compare_metric(out, p + "utilization", base.utilization, fresh.utilization,
                 tol.serve);
  compare_metric(out, p + "p50_us", static_cast<double>(base.p50_us),
                 static_cast<double>(fresh.p50_us), tol.serve);
  compare_metric(out, p + "p99_us", static_cast<double>(base.p99_us),
                 static_cast<double>(fresh.p99_us), tol.serve);
  compare_metric(out, p + "preemptions",
                 static_cast<double>(base.preemptions),
                 static_cast<double>(fresh.preemptions), tol.serve);
  compare_metric(out, p + "model_swaps",
                 static_cast<double>(base.model_swaps),
                 static_cast<double>(fresh.model_swaps), tol.serve);
}

void compare_fleet_sched_point(std::vector<MetricDelta>& out,
                               const FleetSchedPointReport& base,
                               const FleetSchedPointReport& fresh,
                               const ToleranceSpec& tol) {
  const std::string p = "fleet_sched." + base.key() + ".";
  // offered counts arrivals of the seeded mixed workload — exact by
  // construction; everything downstream inherits latency drift through
  // the routed queue dynamics.
  compare_metric(out, p + "offered", static_cast<double>(base.offered),
                 static_cast<double>(fresh.offered), tol.instructions);
  compare_metric(out, p + "completed", static_cast<double>(base.completed),
                 static_cast<double>(fresh.completed), tol.serve);
  compare_metric(out, p + "drop_rate", base.drop_rate, fresh.drop_rate,
                 tol.serve);
  compare_metric(out, p + "throughput_rps", base.throughput_rps,
                 fresh.throughput_rps, tol.serve);
  compare_metric(out, p + "goodput_rps", base.goodput_rps, fresh.goodput_rps,
                 tol.serve);
  compare_metric(out, p + "utilization", base.utilization, fresh.utilization,
                 tol.serve);
  compare_metric(out, p + "p50_us", static_cast<double>(base.p50_us),
                 static_cast<double>(fresh.p50_us), tol.serve);
  compare_metric(out, p + "p99_us", static_cast<double>(base.p99_us),
                 static_cast<double>(fresh.p99_us), tol.serve);
  compare_metric(out, p + "preemptions",
                 static_cast<double>(base.preemptions),
                 static_cast<double>(fresh.preemptions), tol.serve);
  compare_metric(out, p + "model_swaps",
                 static_cast<double>(base.model_swaps),
                 static_cast<double>(fresh.model_swaps), tol.serve);
  compare_metric(out, p + "cold_swaps",
                 static_cast<double>(base.cold_swaps),
                 static_cast<double>(fresh.cold_swaps), tol.serve);
  compare_metric(out, p + "scale_ups", static_cast<double>(base.scale_ups),
                 static_cast<double>(fresh.scale_ups), tol.serve);
  compare_metric(out, p + "scale_downs",
                 static_cast<double>(base.scale_downs),
                 static_cast<double>(fresh.scale_downs), tol.serve);
  compare_metric(out, p + "shard_util_min", base.shard_util_min,
                 fresh.shard_util_min, tol.serve);
  compare_metric(out, p + "shard_util_max", base.shard_util_max,
                 fresh.shard_util_max, tol.serve);
}

void compare_gemm_point(std::vector<MetricDelta>& out,
                        const GemmPointReport& base,
                        const GemmPointReport& fresh) {
  const std::string p = "gemm." + base.key() + ".";
  // Shape identity and repeat count are exact: a baseline silently
  // measuring a different problem would make the gate meaningless.
  compare_metric(out, p + "m", base.m, fresh.m, 0.0);
  compare_metric(out, p + "k", base.k, fresh.k, 0.0);
  compare_metric(out, p + "n", base.n, fresh.n, 0.0);
  compare_metric(out, p + "repeats", base.repeats, fresh.repeats, 0.0);
  // Bit-identity contract: the measured engine must match the reference
  // exactly, on every machine, at every thread count. No tolerance.
  compare_metric(out, p + "max_abs_diff", base.max_abs_diff,
                 fresh.max_abs_diff, 0.0);
  // The measured gflops are machine-dependent and zeroed in baselines, so
  // they are never diffed; instead the gate is one-sided — the fresh
  // speedup must clear the floor recorded at --update time.
  if (base.min_speedup > 0.0) {
    MetricDelta d;
    d.metric = p + "speedup";
    d.baseline = base.min_speedup;
    d.fresh = fresh.speedup;
    d.tolerance = 0.0;
    d.violated = fresh.speedup < base.min_speedup;
    d.note = d.violated ? "below min_speedup floor" : "one-sided floor";
    out.push_back(std::move(d));
  }
}

void compare_sim_loop_point(std::vector<MetricDelta>& out,
                            const SimLoopPointReport& base,
                            const SimLoopPointReport& fresh) {
  const std::string p = "sim_loop." + base.key() + ".";
  // Simulated results are deterministic: any drift means the packed
  // simulator's behaviour changed, which is exactly what this gate pins.
  compare_metric(out, p + "cycles", static_cast<double>(base.cycles),
                 static_cast<double>(fresh.cycles), 0.0);
  compare_metric(out, p + "instructions",
                 static_cast<double>(base.instructions),
                 static_cast<double>(fresh.instructions), 0.0);
  compare_metric(out, p + "repeats", base.repeats, fresh.repeats, 0.0);
  // Byte-identity contract between SmSim and SmSimRef — no tolerance.
  compare_metric(out, p + "stats_identical", base.stats_identical ? 1.0 : 0.0,
                 fresh.stats_identical ? 1.0 : 0.0, 0.0);
  // The measured seconds are machine-dependent and zeroed in baselines;
  // the gate is one-sided — the fresh packed-vs-reference speedup must
  // clear the floor recorded at --update time.
  if (base.min_speedup > 0.0) {
    MetricDelta d;
    d.metric = p + "speedup";
    d.baseline = base.min_speedup;
    d.fresh = fresh.speedup;
    d.tolerance = 0.0;
    d.violated = fresh.speedup < base.min_speedup;
    d.note = d.violated ? "below min_speedup floor" : "one-sided floor";
    out.push_back(std::move(d));
  }
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
  auto& out = result.deltas;

  // Workload metadata must match exactly; toolchain keys are informational.
  for (const auto& [k, v] : baseline.meta) {
    if (informational_meta(k)) continue;
    const auto it = fresh.meta.find(k);
    if (it == fresh.meta.end()) {
      add_missing(out, "meta." + k);
    } else if (it->second != v) {
      MetricDelta d;
      d.metric = "meta." + k;
      d.violated = true;
      d.note = "baseline '" + v + "' != fresh '" + it->second + "'";
      out.push_back(std::move(d));
    }
  }

  for (const auto& base : baseline.strategies) {
    const StrategyReport* f = fresh.find_strategy(base.strategy);
    if (f == nullptr) {
      add_missing(out, base.strategy + ".total_cycles");
      continue;
    }
    compare_strategy(out, base, *f, tol);
  }
  for (const auto& s : fresh.strategies)
    if (baseline.find_strategy(s.strategy) == nullptr)
      add_new(out, s.strategy + ".total_cycles", tol.allow_new_metrics);

  for (const auto& base : baseline.l2_runs) {
    const L2Report* f = nullptr;
    for (const auto& g : fresh.l2_runs)
      if (g.name == base.name) {
        f = &g;
        break;
      }
    const std::string p = "l2." + base.name + ".";
    if (f == nullptr) {
      add_missing(out, p + "cycles");
      continue;
    }
    compare_metric(out, p + "cycles", static_cast<double>(base.cycles),
                   static_cast<double>(f->cycles), tol.cycles);
    compare_metric(out, p + "hit_rate", base.l2_hit_rate, f->l2_hit_rate,
                   tol.l2_hit_rate);
  }

  for (const auto& base : baseline.serve_points) {
    const ServePointReport* f = fresh.find_serve_point(base.key());
    if (f == nullptr) {
      add_missing(out, "serve." + base.key() + ".goodput_rps");
      continue;
    }
    compare_serve_point(out, base, *f, tol);
  }
  for (const auto& p : fresh.serve_points)
    if (baseline.find_serve_point(p.key()) == nullptr)
      add_new(out, "serve." + p.key() + ".goodput_rps",
              tol.allow_new_metrics);

  for (const auto& base : baseline.fleet_points) {
    const FleetPointReport* f = fresh.find_fleet_point(base.key());
    if (f == nullptr) {
      add_missing(out, "fleet." + base.key() + ".goodput_rps");
      continue;
    }
    compare_fleet_point(out, base, *f, tol);
  }
  for (const auto& p : fresh.fleet_points)
    if (baseline.find_fleet_point(p.key()) == nullptr)
      add_new(out, "fleet." + p.key() + ".goodput_rps",
              tol.allow_new_metrics);

  for (const auto& base : baseline.sched_points) {
    const SchedPointReport* f = fresh.find_sched_point(base.key());
    if (f == nullptr) {
      add_missing(out, "sched." + base.key() + ".goodput_rps");
      continue;
    }
    compare_sched_point(out, base, *f, tol);
  }
  for (const auto& p : fresh.sched_points)
    if (baseline.find_sched_point(p.key()) == nullptr)
      add_new(out, "sched." + p.key() + ".goodput_rps",
              tol.allow_new_metrics);

  for (const auto& base : baseline.fleet_sched_points) {
    const FleetSchedPointReport* f = fresh.find_fleet_sched_point(base.key());
    if (f == nullptr) {
      add_missing(out, "fleet_sched." + base.key() + ".goodput_rps");
      continue;
    }
    compare_fleet_sched_point(out, base, *f, tol);
  }
  for (const auto& p : fresh.fleet_sched_points)
    if (baseline.find_fleet_sched_point(p.key()) == nullptr)
      add_new(out, "fleet_sched." + p.key() + ".goodput_rps",
              tol.allow_new_metrics);

  for (const auto& base : baseline.gemm_points) {
    const GemmPointReport* f = fresh.find_gemm_point(base.key());
    if (f == nullptr) {
      add_missing(out, "gemm." + base.key() + ".max_abs_diff");
      continue;
    }
    compare_gemm_point(out, base, *f);
  }
  for (const auto& p : fresh.gemm_points)
    if (baseline.find_gemm_point(p.key()) == nullptr)
      add_new(out, "gemm." + p.key() + ".max_abs_diff",
              tol.allow_new_metrics);

  for (const auto& base : baseline.sim_loop_points) {
    const SimLoopPointReport* f = fresh.find_sim_loop_point(base.key());
    if (f == nullptr) {
      add_missing(out, "sim_loop." + base.key() + ".stats_identical");
      continue;
    }
    compare_sim_loop_point(out, base, *f);
  }
  for (const auto& p : fresh.sim_loop_points)
    if (baseline.find_sim_loop_point(p.key()) == nullptr)
      add_new(out, "sim_loop." + p.key() + ".stats_identical",
              tol.allow_new_metrics);

  return result;
}

}  // namespace vitbit::report
