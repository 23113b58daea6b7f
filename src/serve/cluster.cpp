#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/check.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "nn/vit_model.h"
#include "serve/fleet_loop.h"

namespace vitbit::serve {

namespace {

std::string fmt_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string join_list(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) {
    if (!out.empty()) out += ",";
    out += s;
  }
  return out;
}

std::string join_nums(const std::vector<double>& items) {
  std::string out;
  for (const double v : items) {
    if (!out.empty()) out += ",";
    out += fmt_num(v);
  }
  return out;
}

// Comma-split without the uniqueness constraint of parse_name_list —
// per-class arrival-kind lists legitimately repeat ("poisson,poisson").
std::vector<std::string> split_list(const std::string& spec,
                                    const char* what) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    VITBIT_CHECK_MSG(!item.empty(),
                     "empty entry in " << what << " list: " << spec);
    out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// Vector-of-requests adapter with the WorkloadStream surface.
struct VectorSource {
  const std::vector<Request>& workload;
  std::size_t next_idx = 0;

  bool has_next() const { return next_idx < workload.size(); }
  std::uint64_t peek_arrival_us() const {
    return workload[next_idx].arrival_us;
  }
  Request next() { return workload[next_idx++]; }
};

// The one fleet driver behind every simulate_fleet_sched overload.
template <typename Source>
FleetSchedMetrics drive_fleet(Source& source, const ModelRegistry& registry,
                              const FleetSchedConfig& cfg,
                              const ModelRegistry* fallback) {
  cfg.validate();
  const auto n = static_cast<std::size_t>(cfg.num_shards);
  std::vector<std::unique_ptr<SchedSim>> shards;
  shards.reserve(n);
  for (int s = 0; s < cfg.num_shards; ++s) {
    // Disjoint per-shard fault streams (a different stride from the
    // per-replica derivation inside FaultModel, so shard and replica
    // streams never alias); shard 0 keeps the configured seed.
    SchedConfig sc = cfg.shard;
    sc.faults.seed += 0xbf58476d1ce4e5b9ull * static_cast<std::uint64_t>(s);
    shards.push_back(std::make_unique<SchedSim>(
        registry, sc, cfg.percentiles, cfg.autoscale, fallback));
  }
  if (cfg.placement == PlacementPolicy::kSpread)
    for (int s = 0; s < cfg.num_shards; ++s)
      shards[static_cast<std::size_t>(s)]->prestage(s %
                                                    registry.num_models());
  const Router router(cfg.route, cfg.route_seed, cfg.num_shards);

  // Warm routing steers by class rank: the lowest-priority
  // cold_route_classes classes prefer cold shards, everyone else prefers
  // warm ones. Clamped so at least one class routes warm whenever there
  // are >= 2 classes (with one class, all traffic is "interactive").
  const int n_classes = static_cast<int>(cfg.shard.classes.size());
  const int cold_classes =
      n_classes > 1 ? std::min(cfg.cold_route_classes, n_classes - 1) : 0;

  std::vector<SchedSim*> shard_ptrs;
  shard_ptrs.reserve(n);
  for (auto& sh : shards) shard_ptrs.push_back(sh.get());
  std::vector<char> warm(n, 0);
  const std::uint64_t end = drive_fleet_loop(
      source, shard_ptrs,
      [&](const Request& r, const std::vector<std::size_t>& loads) {
        if (router.policy() != RoutePolicy::kWarm)
          return router.route(r, loads);
        // Warmth is sampled live per decision, like the loads: prior
        // routing decisions move the LRU caches, and the mask must see
        // them.
        for (std::size_t s = 0; s < n; ++s)
          warm[s] = shard_ptrs[s]->warm_for(r.model) ? 1 : 0;
        const bool prefer_cold =
            cold_classes > 0 && r.cls >= n_classes - cold_classes;
        return router.route(r, loads, warm, prefer_cold);
      });

  FleetSchedMetrics fm;
  fm.per_shard.reserve(n);
  for (auto& sh : shards) {
    // Each shard finalizes at its own span: metric denominators reflect
    // the time the shard actually served, which is what the span-weighted
    // aggregation below expects.
    fm.per_shard.push_back(sh->finalize(sh->last_activity_us()));
    fm.scale_ups += sh->scale_ups();
    fm.scale_downs += sh->scale_downs();
  }

  // One scope aggregated across shards, with its percentiles merged in
  // shard-index order (the P² merge is not associative, so the order is
  // part of the determinism contract).
  const auto merge = [&](auto&& scope_of, auto&& sink_of) {
    std::vector<ServeMetrics> rows;
    rows.reserve(n);
    for (const auto& ps : fm.per_shard) rows.push_back(scope_of(ps));
    ServeMetrics m = aggregate_shard_metrics(rows, end);
    if (cfg.percentiles == PercentileMode::kSketch) {
      LatencySketch merged;
      for (std::size_t s = 0; s < n; ++s) merged.merge(sink_of(s).sketch());
      m.p50_us = merged.percentile_us(50.0);
      m.p90_us = merged.percentile_us(90.0);
      m.p95_us = merged.percentile_us(95.0);
      m.p99_us = merged.percentile_us(99.0);
      m.max_us = merged.max_us();
    } else {
      std::vector<std::uint64_t> all;
      for (std::size_t s = 0; s < n; ++s) {
        const auto& v = sink_of(s).latencies();
        all.insert(all.end(), v.begin(), v.end());
      }
      std::sort(all.begin(), all.end());
      m.p50_us = percentile_nearest_rank(all, 50.0);
      m.p90_us = percentile_nearest_rank(all, 90.0);
      m.p95_us = percentile_nearest_rank(all, 95.0);
      m.p99_us = percentile_nearest_rank(all, 99.0);
      m.max_us = percentile_nearest_rank(all, 100.0);
    }
    return m;
  };
  fm.total.total =
      merge([](const SchedMetrics& ps) { return ps.total; },
            [&](std::size_t s) -> const MetricsSink& {
              return shards[s]->total_sink();
            });
  fm.total.per_class.reserve(cfg.shard.classes.size());
  for (std::size_t c = 0; c < cfg.shard.classes.size(); ++c)
    fm.total.per_class.push_back(
        merge([c](const SchedMetrics& ps) { return ps.per_class[c]; },
              [&](std::size_t s) -> const MetricsSink& {
                return shards[s]->class_sink(c);
              }));
  fm.total.per_model.reserve(
      static_cast<std::size_t>(registry.num_models()));
  for (int m = 0; m < registry.num_models(); ++m) {
    const auto mi = static_cast<std::size_t>(m);
    fm.total.per_model.push_back(
        merge([mi](const SchedMetrics& ps) { return ps.per_model[mi]; },
              [&](std::size_t s) -> const MetricsSink& {
                return shards[s]->model_sink(mi);
              }));
  }
  for (const auto& ps : fm.per_shard) {
    fm.total.preemptions += ps.preemptions;
    fm.total.model_swaps += ps.model_swaps;
    fm.total.cold_swaps += ps.cold_swaps;
    fm.total.swap_us += ps.swap_us;
  }

  // Utilization spread over the shards that actually served: a shard the
  // router never touched finalizes with a zero-width span (end_us == 0)
  // and a meaningless 0.0 utilization — including it would pin the min to
  // zero and report the fleet as maximally imbalanced. When every shard
  // is degenerate the spread stays 0/0.
  bool have_util = false;
  for (const auto& ps : fm.per_shard) {
    if (ps.total.end_us == 0) continue;
    const double u = ps.total.utilization;
    fm.shard_util_min = have_util ? std::min(fm.shard_util_min, u) : u;
    fm.shard_util_max = have_util ? std::max(fm.shard_util_max, u) : u;
    have_util = true;
  }

  const auto conserved = [](const ServeMetrics& m) {
    return m.offered == m.completed + m.dropped + m.shed;
  };
  VITBIT_CHECK_MSG(conserved(fm.total.total),
                   "request conservation violated at drain: offered "
                       << fm.total.total.offered << " != completed "
                       << fm.total.total.completed << " + dropped "
                       << fm.total.total.dropped << " + shed "
                       << fm.total.total.shed);
  for (std::size_t c = 0; c < fm.total.per_class.size(); ++c)
    VITBIT_CHECK_MSG(conserved(fm.total.per_class[c]),
                     "class " << c << " conservation violated at drain");
  return fm;
}

// One single-model registry per strategy over the sweeps' ViT, every
// table timed in one build.
std::vector<ModelRegistry> vit_registries(
    const nn::VitConfig& model, const std::vector<core::Strategy>& strategies,
    const core::StrategyConfig& cfg, int max_batch, const arch::OrinSpec& spec,
    const arch::Calibration& calib, ThreadPool* pool) {
  std::vector<ModelRegistry> out;
  out.reserve(strategies.size());
  for (auto& table : build_latency_tables(model, strategies, cfg, spec, calib,
                                          max_batch, pool))
    out.emplace_back(std::vector<std::string>{"vit"},
                     std::vector<LatencyTable>{std::move(table)});
  return out;
}

// Validates the swept workload at every rate, before any table is built.
template <typename Workload>
void validate_rates(Workload w, const std::vector<double>& rates) {
  VITBIT_CHECK_MSG(!rates.empty(), "sweep needs >= 1 rate");
  for (const double r : rates) {
    w.rate_rps = r;
    w.validate();
  }
}

// The --rates list, or the one --rate, through the validated parser.
std::vector<double> read_rates(const Cli& cli, std::vector<double> rates) {
  if (cli.has("rates")) return parse_rate_list(cli.get("rates", ""));
  if (!cli.has("rate")) return rates;
  rates = parse_rate_list(cli.get("rate", ""));
  VITBIT_CHECK_MSG(rates.size() == 1, "--rate takes one rate; use --rates");
  return rates;
}

// The flag block of sweep_ and fleet_config_from_cli: ViT-Base depth,
// traffic, the shard's flush policy, batching, SLO and fault knobs, and
// the fallback strategy. `gpus` names the per-shard replica-count flag.
template <typename Sweep>
void read_single_model_flags(const Cli& cli, const char* gpus, Sweep& cfg,
                             SchedConfig& shard) {
  cfg.model = nn::vit_base();
  cfg.model.num_layers = get_flag(cli, "layers", cfg.model.num_layers, 1);
  cfg.rates_rps = read_rates(cli, cfg.rates_rps);
  cfg.workload.kind = arrival_kind_from_name(cli.get("arrival", "poisson"));
  cfg.workload.duration_s = cli.get_double("duration-s", 2.0);
  cfg.workload.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  const std::string policy = cli.get("policy", "timeout");
  VITBIT_CHECK_MSG(policy == "greedy" || policy == "timeout",
                   "unknown batching policy: " << policy
                                               << " (want greedy|timeout)");
  shard.mode = policy == "greedy" ? "fifo" : "timeout";
  shard.max_batch = get_flag(cli, "max-batch", 8, 1);
  shard.batch_timeout_us =
      get_flag<std::uint64_t>(cli, "batch-timeout-us", 2000, 1);
  shard.queue_capacity = get_flag(cli, "queue-capacity", 64, 1);
  shard.num_gpus = get_flag(cli, gpus, 1, 1);
  shard.slo_us = get_flag<std::uint64_t>(cli, "slo-us", 50000, 1);

  auto& f = shard.faults;
  f.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  f.replica_mtbf_s = cli.get_double("mtbf-s", 0.0);
  f.replica_mttr_s = cli.get_double("mttr-s", 0.05);
  f.batch_failure_prob = cli.get_double("batch-fail-prob", 0.0);
  f.latency_spike_prob = cli.get_double("spike-prob", 0.0);
  f.latency_spike_mult = cli.get_double("spike-mult", 4.0);
  f.max_retries = get_flag(cli, "max-retries", 2, 0);
  f.retry_backoff_us =
      get_flag<std::uint64_t>(cli, "retry-backoff-us", 1000, 1);
  f.degrade_below_live = get_flag(cli, "degrade-below", 0, 0);
  cfg.fallback_strategy =
      parse_strategy(cli.get("fallback", "TC"), "fallback strategy");
}

// The autoscale flag block of the two fleet CLIs; a shard's default
// window is its fixed replica count `gpus`.
void read_autoscale_flags(const Cli& cli, int gpus, AutoscaleConfig& as) {
  as.min_replicas = get_flag(cli, "min-replicas", gpus, 1);
  as.max_replicas = get_flag(cli, "max-replicas", as.min_replicas, 1);
  as.interval_us = get_flag<std::uint64_t>(cli, "scale-interval-us", 50000, 0);
  as.up_queue_depth = get_flag<std::uint64_t>(cli, "scale-up-depth", 16, 0);
  as.down_queue_depth = get_flag<std::uint64_t>(cli, "scale-down-depth", 2, 0);
  as.up_p99_us = get_flag<std::uint64_t>(cli, "scale-p99-us", 0, 0);
  as.cooldown_us =
      get_flag<std::uint64_t>(cli, "scale-cooldown-us", 200000, 0);
}

void add_autoscale_meta(report::RunReport& rep, const AutoscaleConfig& as) {
  rep.meta["min_replicas"] = std::to_string(as.min_replicas);
  rep.meta["max_replicas"] = std::to_string(as.max_replicas);
  rep.meta["scale_interval_us"] = std::to_string(as.interval_us);
  rep.meta["scale_up_depth"] = std::to_string(as.up_queue_depth);
  rep.meta["scale_down_depth"] = std::to_string(as.down_queue_depth);
  rep.meta["scale_p99_us"] = std::to_string(as.up_p99_us);
  rep.meta["scale_cooldown_us"] = std::to_string(as.cooldown_us);
}

// The report flush-policy name of a single-model shard mode.
std::string policy_name(const std::string& mode) {
  return mode == "fifo" ? "greedy" : mode;
}

// The meta shared by the serve and fleet reports: model, traffic, shard,
// and fault knobs.
template <typename Sweep>
report::RunReport single_model_report(const Sweep& cfg,
                                      const SchedConfig& shard,
                                      const std::string& tool, int threads) {
  report::RunReport rep;
  rep.tool = tool;
  rep.threads = threads;
  rep.meta = report::build_metadata();
  rep.meta["model"] = "vit";
  rep.meta["layers"] = std::to_string(cfg.model.num_layers);
  rep.meta["arrival"] = arrival_kind_name(cfg.workload.kind);
  rep.meta["duration_s"] = fmt_num(cfg.workload.duration_s);
  rep.meta["seed"] = std::to_string(cfg.workload.seed);
  rep.meta["policy"] = policy_name(shard.mode);
  rep.meta["max_batch_size"] = std::to_string(shard.max_batch);
  rep.meta["batch_timeout_us"] = std::to_string(shard.batch_timeout_us);
  rep.meta["queue_capacity"] = std::to_string(shard.queue_capacity);
  rep.meta["slo_us"] = std::to_string(shard.slo_us);
  const auto& f = shard.faults;
  rep.meta["fault_seed"] = std::to_string(f.seed);
  rep.meta["mtbf_s"] = fmt_num(f.replica_mtbf_s);
  rep.meta["mttr_s"] = fmt_num(f.replica_mttr_s);
  rep.meta["batch_fail_prob"] = fmt_num(f.batch_failure_prob);
  rep.meta["spike_prob"] = fmt_num(f.latency_spike_prob);
  rep.meta["spike_mult"] = fmt_num(f.latency_spike_mult);
  rep.meta["max_retries"] = std::to_string(f.max_retries);
  rep.meta["retry_backoff_us"] = std::to_string(f.retry_backoff_us);
  rep.meta["degrade_below_live"] = std::to_string(f.degrade_below_live);
  rep.meta["fallback"] = core::strategy_name(cfg.fallback_strategy);
  return rep;
}

// The meta shared by the sched and fleet-sched reports: zoo, classes,
// traffic, shard, and swap knobs.
template <typename Sweep>
report::RunReport zoo_report(const Sweep& cfg, const SchedConfig& shard,
                             PercentileMode percentiles,
                             const std::string& tool, int threads) {
  report::RunReport rep;
  rep.tool = tool;
  rep.threads = threads;
  rep.meta = report::build_metadata();
  rep.meta["models"] = join_list(cfg.model_names);
  rep.meta["strategy"] = core::strategy_name(cfg.strategy);
  rep.meta["modes"] = join_list(cfg.modes);
  std::vector<std::string> names, arrivals;
  std::vector<double> weights, slos, shares;
  for (const auto& c : shard.classes) {
    names.push_back(c.name);
    weights.push_back(c.weight);
    slos.push_back(static_cast<double>(c.slo_us));
  }
  for (std::size_t c = 0; c < cfg.workload.classes.size(); ++c) {
    const auto& t = cfg.workload.classes[c];
    arrivals.push_back(arrival_kind_name(t.kind));
    shares.push_back(t.rate_share);
    rep.meta["mix" + std::to_string(c)] = join_nums(t.model_mix);
  }
  rep.meta["classes"] = join_list(names);
  rep.meta["weights"] = join_nums(weights);
  rep.meta["slos_us"] = join_nums(slos);
  rep.meta["shares"] = join_nums(shares);
  rep.meta["arrivals"] = join_list(arrivals);
  rep.meta["duration_s"] = fmt_num(cfg.workload.duration_s);
  rep.meta["seed"] = std::to_string(cfg.workload.seed);
  rep.meta["max_batch"] = std::to_string(shard.max_batch);
  rep.meta["queue_capacity"] = std::to_string(shard.queue_capacity);
  rep.meta["num_gpus"] = std::to_string(shard.num_gpus);
  rep.meta["iters"] = std::to_string(shard.iters);
  rep.meta["slo_us"] = std::to_string(shard.slo_us);
  rep.meta["cache_models"] = std::to_string(cfg.swap.cache_models);
  rep.meta["load_gbps"] = fmt_num(cfg.swap.load_gbps);
  rep.meta["warm_swap_us"] = std::to_string(cfg.swap.warm_swap_us);
  rep.meta["percentiles"] =
      percentiles == PercentileMode::kExact ? "exact" : "sketch";
  return rep;
}

// One point-report row's traffic and latency fields from `m`.
template <typename Row>
void fill_row(Row& row, const ServeMetrics& m) {
  row.offered = m.offered;
  row.completed = m.completed;
  row.dropped = m.dropped;
  row.batches = m.batches;
  row.mean_batch_size = m.mean_batch_size;
  row.drop_rate = m.drop_rate;
  row.throughput_rps = m.throughput_rps;
  row.goodput_rps = m.goodput_rps;
  row.mean_queue_depth = m.mean_queue_depth;
  row.max_queue_depth = m.max_queue_depth;
  row.p50_us = m.p50_us;
  row.p90_us = m.p90_us;
  row.p95_us = m.p95_us;
  row.p99_us = m.p99_us;
}

// One "all" row plus one row per class and per model of `m`, each a copy
// of `head` (mode, route, and rate already set). Only the "all" row
// carries utilization and the swap counters.
template <typename Row>
void push_scope_rows(std::vector<Row>& rows, Row head, const SchedMetrics& m,
                     const std::vector<ClassSpec>& classes,
                     const std::vector<std::string>& models) {
  Row all = head;
  all.scope = "all";
  all.group = "all";
  fill_row(all, m.total);
  all.utilization = m.total.utilization;
  all.preemptions = m.preemptions;
  all.model_swaps = m.model_swaps;
  all.swap_us = m.swap_us;
  rows.push_back(std::move(all));
  for (std::size_t c = 0; c < m.per_class.size(); ++c) {
    Row row = head;
    row.scope = "class";
    row.group = classes[c].name;
    fill_row(row, m.per_class[c]);
    rows.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < m.per_model.size(); ++i) {
    Row row = head;
    row.scope = "model";
    row.group = models[i];
    fill_row(row, m.per_model[i]);
    rows.push_back(std::move(row));
  }
}

}  // namespace

ServeMetrics aggregate_shard_metrics(const std::vector<ServeMetrics>& shards,
                                     std::uint64_t end_us) {
  ServeMetrics m;
  std::uint64_t span_sum_us = 0;  // sum of per-shard virtual-time spans
  for (const auto& s : shards) {
    m.offered += s.offered;
    m.completed += s.completed;
    m.dropped += s.dropped;
    m.batch_failures += s.batch_failures;
    m.retries += s.retries;
    m.requeued += s.requeued;
    m.shed += s.shed;
    m.failovers += s.failovers;
    m.degraded_s += s.degraded_s;
    m.batches += s.batches;
    m.within_slo += s.within_slo;
    m.busy_us += s.busy_us;
    m.replica_time_us += s.replica_time_us;
    m.depth_integral_us += s.depth_integral_us;
    m.batched_requests += s.batched_requests;
    m.max_queue_depth = std::max(m.max_queue_depth, s.max_queue_depth);
    span_sum_us += s.end_us;
  }
  m.end_us = end_us;
  m.duration_s = static_cast<double>(end_us) / 1e6;
  m.mean_batch_size = m.batches == 0
                          ? 0.0
                          : static_cast<double>(m.batched_requests) /
                                static_cast<double>(m.batches);
  m.drop_rate = m.offered == 0 ? 0.0
                               : static_cast<double>(m.dropped) /
                                     static_cast<double>(m.offered);
  if (end_us > 0) {
    m.throughput_rps = static_cast<double>(m.completed) / m.duration_s;
    m.goodput_rps = static_cast<double>(m.within_slo) / m.duration_s;
  }
  // Span-weighted ratios: a shard that served twice the replica-time (or
  // span) contributes twice the weight, instead of a naive average of the
  // per-shard ratios — fleet_test pins the two-shard unequal-span case.
  if (m.replica_time_us > 0)
    m.utilization = static_cast<double>(m.busy_us) /
                    static_cast<double>(m.replica_time_us);
  if (span_sum_us > 0)
    m.mean_queue_depth = static_cast<double>(m.depth_integral_us) /
                         static_cast<double>(span_sum_us);
  return m;
}

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kNone:
      return "none";
    case PlacementPolicy::kSpread:
      return "spread";
  }
  return "?";
}

PlacementPolicy placement_policy_from_name(const std::string& name) {
  if (name == "none") return PlacementPolicy::kNone;
  if (name == "spread") return PlacementPolicy::kSpread;
  VITBIT_CHECK_MSG(false, "unknown placement policy: " << name
                                                       << " (want none|spread)");
  return PlacementPolicy::kNone;
}

void FleetSchedConfig::validate() const {
  VITBIT_CHECK_MSG(num_shards >= 1, "fleet needs >= 1 shard");
  VITBIT_CHECK_MSG(cold_route_classes >= 0,
                   "cold_route_classes must be >= 0, got "
                       << cold_route_classes);
  shard.validate();
  autoscale.validate();
  if (autoscale.enabled())
    VITBIT_CHECK_MSG(shard.faults.degrade_below_live <= autoscale.max_replicas,
                     "degrade_below_live "
                         << shard.faults.degrade_below_live
                         << " exceeds max_replicas "
                         << autoscale.max_replicas);
}

FleetSchedMetrics simulate_fleet_sched(const MixedWorkloadConfig& workload,
                                       const ModelRegistry& registry,
                                       const FleetSchedConfig& cfg,
                                       const ModelRegistry* fallback) {
  MixedWorkloadStream stream(workload);
  return drive_fleet(stream, registry, cfg, fallback);
}

FleetSchedMetrics simulate_fleet_sched(const WorkloadConfig& workload,
                                       const ModelRegistry& registry,
                                       const FleetSchedConfig& cfg,
                                       const ModelRegistry* fallback) {
  WorkloadStream stream(workload);
  return drive_fleet(stream, registry, cfg, fallback);
}

FleetSchedMetrics simulate_fleet_sched(const std::vector<Request>& workload,
                                       const ModelRegistry& registry,
                                       const FleetSchedConfig& cfg,
                                       const ModelRegistry* fallback) {
  VectorSource source{workload};
  return drive_fleet(source, registry, cfg, fallback);
}

// ---------------------------------------------------------------------------
// Single-model sweeps.

void SweepConfig::validate() const {
  VITBIT_CHECK_MSG(!strategies.empty(), "sweep needs >= 1 strategy");
  validate_rates(workload, rates_rps);
  server.validate();
}

std::vector<SweepPoint> run_rate_sweep(const SweepConfig& cfg,
                                       const arch::OrinSpec& spec,
                                       const arch::Calibration& calib,
                                       ThreadPool* pool) {
  cfg.validate();
  FleetSchedConfig fc;
  fc.num_shards = 1;
  fc.shard = cfg.server;
  fc.percentiles = PercentileMode::kExact;

  // Phase 1: memoized latency tables. The fallback strategy rides along
  // only when degraded-mode failover is enabled and it is not already
  // being swept (the common TC-next-to-VitBit sweep costs no extra
  // simulations).
  const bool degrade_on = cfg.server.faults.degrade_below_live > 0;
  auto to_build = cfg.strategies;
  std::size_t fallback_idx = 0;
  if (degrade_on) {
    const auto it =
        std::find(to_build.begin(), to_build.end(), cfg.fallback_strategy);
    fallback_idx = static_cast<std::size_t>(it - to_build.begin());
    if (it == to_build.end()) to_build.push_back(cfg.fallback_strategy);
  }
  const auto registries =
      vit_registries(cfg.model, to_build, cfg.strategy_cfg,
                     cfg.server.max_batch, spec, calib, pool);
  const ModelRegistry* fallback =
      degrade_on ? &registries[fallback_idx] : nullptr;

  // Phase 2: a one-shard fleet per (strategy, rate) point. Workloads
  // regenerate per point from the shared seed, so both strategies at one
  // rate face identical request streams.
  const auto n_strategies = cfg.strategies.size();
  const auto n_rates = cfg.rates_rps.size();
  return parallel_map(pool, n_strategies * n_rates, [&](std::size_t i) {
    const std::size_t s = i / n_rates;
    const std::size_t r = i % n_rates;
    WorkloadConfig w = cfg.workload;
    w.rate_rps = cfg.rates_rps[r];
    SweepPoint point;
    point.strategy = cfg.strategies[s];
    point.rate_rps = cfg.rates_rps[r];
    point.metrics =
        simulate_fleet_sched(w, registries[s], fc, fallback).total.total;
    return point;
  });
}

Table sweep_table(const SweepConfig& cfg,
                  const std::vector<SweepPoint>& points) {
  Table t("serving simulation — " + std::string("rate sweep, ") +
          arrival_kind_name(cfg.workload.kind) +
          " arrivals, policy=" + policy_name(cfg.server.mode));
  std::vector<std::string> header = {"rate (req/s)"};
  for (const auto s : cfg.strategies) {
    const std::string name = core::strategy_name(s);
    header.push_back(name + " goodput");
    header.push_back(name + " p99 (ms)");
    header.push_back(name + " drop %");
  }
  t.header(std::move(header));
  const auto n_rates = cfg.rates_rps.size();
  for (std::size_t r = 0; r < n_rates; ++r) {
    auto& row = t.row();
    row.cell(cfg.rates_rps[r], 1);
    for (std::size_t s = 0; s < cfg.strategies.size(); ++s) {
      const auto& m = points[s * n_rates + r].metrics;
      row.cell(m.goodput_rps, 1)
          .cell(static_cast<double>(m.p99_us) / 1e3, 3)
          .cell(m.drop_rate * 100.0, 2);
    }
  }
  return t;
}

SweepConfig sweep_config_from_cli(const Cli& cli) {
  SweepConfig cfg;
  read_single_model_flags(cli, "num-gpus", cfg, cfg.server);
  cfg.validate();
  return cfg;
}

report::RunReport make_serve_report(const SweepConfig& cfg,
                                    const std::vector<SweepPoint>& points,
                                    const std::string& tool, int threads) {
  auto rep = single_model_report(cfg, cfg.server, tool, threads);
  rep.meta["num_gpus"] = std::to_string(cfg.server.num_gpus);
  for (const auto& p : points) {
    report::ServePointReport sp;
    sp.strategy = core::strategy_name(p.strategy);
    sp.policy = policy_name(cfg.server.mode);
    sp.arrival = arrival_kind_name(cfg.workload.kind);
    sp.rate_rps = p.rate_rps;
    fill_row(sp, p.metrics);
    sp.batch_failures = p.metrics.batch_failures;
    sp.retries = p.metrics.retries;
    sp.requeued = p.metrics.requeued;
    sp.shed = p.metrics.shed;
    sp.failovers = p.metrics.failovers;
    sp.degraded_s = p.metrics.degraded_s;
    sp.utilization = p.metrics.utilization;
    rep.serve_points.push_back(std::move(sp));
  }
  return rep;
}

void FleetSweepConfig::validate() const {
  VITBIT_CHECK_MSG(!routes.empty(), "fleet sweep needs >= 1 route");
  validate_rates(workload, rates_rps);
  fleet.validate();
}

std::vector<FleetSchedPoint> run_fleet_sweep(const FleetSweepConfig& cfg,
                                             const arch::OrinSpec& spec,
                                             const arch::Calibration& calib,
                                             ThreadPool* pool) {
  cfg.validate();
  // The one model is staged on every shard before traffic. A staged model
  // and a free first load cost the same, and warm routing then sees every
  // shard warm, so it routes exactly as jsq.
  FleetSchedConfig fc = cfg.fleet;
  fc.placement = PlacementPolicy::kSpread;

  // Phase 1: memoized latency tables — the swept strategy, plus the
  // fallback when degraded-mode failover is on and it differs.
  const bool degrade_on = fc.shard.faults.degrade_below_live > 0;
  std::vector<core::Strategy> to_build = {cfg.strategy};
  if (degrade_on && cfg.fallback_strategy != cfg.strategy)
    to_build.push_back(cfg.fallback_strategy);
  const auto registries = vit_registries(
      cfg.model, to_build, cfg.strategy_cfg, fc.shard.max_batch, spec, calib,
      pool);
  const ModelRegistry* fallback = degrade_on ? &registries.back() : nullptr;

  // Phase 2: one single-threaded fleet loop per (route, rate) point,
  // fanned out over the pool in index order.
  const auto n_routes = cfg.routes.size();
  const auto n_rates = cfg.rates_rps.size();
  return parallel_map(pool, n_routes * n_rates, [&](std::size_t i) {
    const std::size_t ri = i / n_rates;
    const std::size_t r = i % n_rates;
    WorkloadConfig w = cfg.workload;
    w.rate_rps = cfg.rates_rps[r];
    FleetSchedConfig pc = fc;
    pc.route = cfg.routes[ri];
    FleetSchedPoint point;
    point.mode = pc.shard.mode;
    point.route = cfg.routes[ri];
    point.rate_rps = cfg.rates_rps[r];
    point.metrics = simulate_fleet_sched(w, registries.front(), pc, fallback);
    return point;
  });
}

Table fleet_table(const FleetSweepConfig& cfg,
                  const std::vector<FleetSchedPoint>& points) {
  Table t("fleet simulation — " + std::to_string(cfg.fleet.num_shards) +
          " shards, " + core::strategy_name(cfg.strategy) + ", " +
          arrival_kind_name(cfg.workload.kind) + " arrivals");
  std::vector<std::string> header = {"rate (req/s)"};
  for (const auto r : cfg.routes) {
    const std::string name = route_policy_name(r);
    header.push_back(name + " goodput");
    header.push_back(name + " p99 (ms)");
    header.push_back(name + " drop %");
    header.push_back(name + " util spread");
  }
  t.header(std::move(header));
  const auto n_rates = cfg.rates_rps.size();
  for (std::size_t r = 0; r < n_rates; ++r) {
    auto& row = t.row();
    row.cell(cfg.rates_rps[r], 1);
    for (std::size_t ri = 0; ri < cfg.routes.size(); ++ri) {
      const auto& p = points[ri * n_rates + r].metrics;
      row.cell(p.total.total.goodput_rps, 1)
          .cell(static_cast<double>(p.total.total.p99_us) / 1e3, 3)
          .cell(p.total.total.drop_rate * 100.0, 2)
          .cell(p.shard_util_max - p.shard_util_min, 3);
    }
  }
  return t;
}

FleetSweepConfig fleet_config_from_cli(const Cli& cli) {
  FleetSweepConfig cfg;
  read_single_model_flags(cli, "replicas", cfg, cfg.fleet.shard);
  cfg.strategy = parse_strategy(cli.get("strategy", "VitBit"), "strategy");
  if (cli.has("routes"))
    cfg.routes = parse_route_list(cli.get("routes", ""));
  else if (cli.has("route"))
    cfg.routes = {route_policy_from_name(cli.get("route", ""))};
  auto& fleet = cfg.fleet;
  fleet.num_shards = get_flag(cli, "shards", 4, 1);
  fleet.route_seed = static_cast<std::uint64_t>(cli.get_int("route-seed", 1));
  fleet.percentiles = cli.get_bool("exact", false) ? PercentileMode::kExact
                                                   : PercentileMode::kSketch;
  read_autoscale_flags(cli, fleet.shard.num_gpus, fleet.autoscale);
  cfg.validate();
  return cfg;
}

report::RunReport make_fleet_report(const FleetSweepConfig& cfg,
                                    const std::vector<FleetSchedPoint>& points,
                                    const std::string& tool, int threads) {
  const auto& fleet = cfg.fleet;
  auto rep = single_model_report(cfg, fleet.shard, tool, threads);
  rep.meta["strategy"] = core::strategy_name(cfg.strategy);
  rep.meta["shards"] = std::to_string(fleet.num_shards);
  rep.meta["route_seed"] = std::to_string(fleet.route_seed);
  rep.meta["percentiles"] =
      fleet.percentiles == PercentileMode::kSketch ? "sketch" : "exact";
  rep.meta["replicas"] = std::to_string(fleet.shard.num_gpus);
  add_autoscale_meta(rep, fleet.autoscale);
  for (const auto& p : points) {
    report::FleetPointReport fp;
    fp.strategy = core::strategy_name(cfg.strategy);
    fp.route = route_policy_name(p.route);
    fp.policy = policy_name(p.mode);
    fp.arrival = arrival_kind_name(cfg.workload.kind);
    fp.rate_rps = p.rate_rps;
    fill_row(fp, p.metrics.total.total);
    fp.shed = p.metrics.total.total.shed;
    fp.utilization = p.metrics.total.total.utilization;
    fp.scale_ups = p.metrics.scale_ups;
    fp.scale_downs = p.metrics.scale_downs;
    fp.shard_util_min = p.metrics.shard_util_min;
    fp.shard_util_max = p.metrics.shard_util_max;
    rep.fleet_points.push_back(std::move(fp));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Zoo sweeps.

void SchedSweepConfig::validate() const {
  VITBIT_CHECK_MSG(!model_names.empty(), "sweep needs >= 1 model");
  VITBIT_CHECK_MSG(!modes.empty(), "sweep needs >= 1 mode");
  MixedWorkloadConfig w = workload;
  w.num_models = static_cast<int>(model_names.size());
  validate_rates(w, rates_rps);
  VITBIT_CHECK_MSG(workload.classes.size() == sched.classes.size(),
                   "traffic classes (" << workload.classes.size()
                                       << ") and scheduling classes ("
                                       << sched.classes.size()
                                       << ") must pair up");
  // Mode names are validated through the shard config they will be swept
  // into, so the error fires here rather than mid-sweep.
  for (const auto& m : modes) {
    SchedConfig s = sched;
    s.mode = m;
    s.validate();
  }
  swap.validate();
}

std::vector<SchedPoint> run_sched_sweep(const SchedSweepConfig& cfg,
                                        const arch::OrinSpec& spec,
                                        const arch::Calibration& calib,
                                        ThreadPool* pool) {
  cfg.validate();
  // Phase 1: one memoized latency table per zoo model.
  const ModelRegistry registry(cfg.model_names, cfg.strategy, spec, calib,
                               cfg.sched.max_batch, cfg.swap, pool);
  // Phase 2: a one-shard fleet per (mode, rate) point. The workload is
  // regenerated per point from the shared seed, so every mode at one
  // rate faces the byte-identical request stream.
  const auto n_modes = cfg.modes.size();
  const auto n_rates = cfg.rates_rps.size();
  return parallel_map(pool, n_modes * n_rates, [&](std::size_t i) {
    const std::size_t mi = i / n_rates;
    const std::size_t r = i % n_rates;
    MixedWorkloadConfig w = cfg.workload;
    w.rate_rps = cfg.rates_rps[r];
    w.num_models = static_cast<int>(cfg.model_names.size());
    FleetSchedConfig fc;
    fc.num_shards = 1;
    fc.shard = cfg.sched;
    fc.shard.mode = cfg.modes[mi];
    fc.percentiles = cfg.percentiles;
    SchedPoint point;
    point.mode = cfg.modes[mi];
    point.rate_rps = w.rate_rps;
    point.metrics = simulate_fleet_sched(w, registry, fc).total;
    return point;
  });
}

Table sched_table(const SchedSweepConfig& cfg,
                  const std::vector<SchedPoint>& points) {
  Table t("continuous-batching scheduler — mode sweep over " +
          join_list(cfg.model_names));
  std::vector<std::string> header = {"mode",    "rate (req/s)", "goodput",
                                     "p99 (ms)", "drop %",      "preempt",
                                     "swaps"};
  for (const auto& c : cfg.sched.classes)
    header.push_back(c.name + " p99 (ms)");
  t.header(std::move(header));
  for (const auto& p : points) {
    auto& row = t.row();
    row.cell(p.mode)
        .cell(p.rate_rps, 1)
        .cell(p.metrics.total.goodput_rps, 1)
        .cell(static_cast<double>(p.metrics.total.p99_us) / 1e3, 3)
        .cell(p.metrics.total.drop_rate * 100.0, 2)
        .cell(static_cast<double>(p.metrics.preemptions), 0)
        .cell(static_cast<double>(p.metrics.model_swaps), 0);
    for (const auto& cm : p.metrics.per_class)
      row.cell(static_cast<double>(cm.p99_us) / 1e3, 3);
  }
  return t;
}

SchedSweepConfig sched_config_from_cli(const Cli& cli) {
  SchedSweepConfig cfg;
  cfg.model_names = parse_name_list(cli.get("models", "vit-b"), "model");
  cfg.strategy = parse_strategy(cli.get("strategy", "VitBit"), "strategy");
  cfg.modes = parse_name_list(cli.get("modes", "fifo,cb,cb-pre"), "mode");
  cfg.rates_rps = read_rates(cli, cfg.rates_rps);

  const auto class_names =
      parse_name_list(cli.get("classes", "default"), "class");
  const auto n = class_names.size();
  auto per_class = [&](const char* flag, std::vector<double> vals,
                       const char* what) {
    if (vals.size() == 1 && n > 1) vals.assign(n, vals[0]);
    VITBIT_CHECK_MSG(vals.size() == n, "--" << flag << " has " << vals.size()
                                            << " entries for " << n << " "
                                            << what);
    return vals;
  };
  const auto weights = per_class(
      "weights", cli.has("weights") ? parse_weight_list(cli.get("weights", ""))
                                    : std::vector<double>{1.0},
      "classes");
  const auto slos = per_class(
      "slos-us",
      cli.has("slos-us") ? parse_number_list(cli.get("slos-us", ""), "slo",
                                             /*require_positive=*/true)
                         : std::vector<double>{50000.0},
      "classes");
  for (const double v : slos)
    VITBIT_CHECK_MSG(v == std::floor(v) && v < 0x1p63,
                     "--slos-us entry is not an integer in [1, "
                         << std::numeric_limits<std::int64_t>::max()
                         << "]: " << fmt_num(v));
  const auto shares = per_class(
      "shares",
      cli.has("shares") ? parse_fraction_list(cli.get("shares", ""), "share")
                        : std::vector<double>{1.0},
      "classes");
  auto arrivals = split_list(cli.get("arrivals", "poisson"), "arrival");
  if (arrivals.size() == 1 && n > 1) arrivals.assign(n, arrivals[0]);
  VITBIT_CHECK_MSG(arrivals.size() == n, "--arrivals has " << arrivals.size()
                                                           << " entries for "
                                                           << n
                                                           << " classes");

  cfg.sched.classes.clear();
  cfg.workload.classes.clear();
  const std::vector<double> shared_mix =
      cli.has("mix") ? parse_fraction_list(cli.get("mix", ""), "mix")
                     : std::vector<double>{};
  for (std::size_t c = 0; c < n; ++c) {
    cfg.sched.classes.push_back(
        {class_names[c], weights[c], static_cast<std::uint64_t>(slos[c])});

    ClassTraffic traffic;
    traffic.kind = arrival_kind_from_name(arrivals[c]);
    traffic.rate_share = shares[c];
    traffic.burst_on_s = cli.get_double("burst-on-s", traffic.burst_on_s);
    traffic.burst_off_s = cli.get_double("burst-off-s", traffic.burst_off_s);
    const std::string mix_flag = "mix" + std::to_string(c);
    if (cli.has(mix_flag))
      traffic.model_mix = parse_fraction_list(cli.get(mix_flag, ""), "mix");
    else
      traffic.model_mix = shared_mix;
    if (!traffic.model_mix.empty())
      VITBIT_CHECK_MSG(traffic.model_mix.size() == cfg.model_names.size(),
                       "class " << class_names[c] << " model mix has "
                                << traffic.model_mix.size()
                                << " entries for " << cfg.model_names.size()
                                << " models");
    cfg.workload.classes.push_back(std::move(traffic));
  }

  cfg.workload.duration_s = cli.get_double("duration-s", 2.0);
  cfg.workload.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  cfg.sched.max_batch = get_flag(cli, "max-batch", 8, 1);
  cfg.sched.queue_capacity = get_flag(cli, "queue-capacity", 64, 1);
  cfg.sched.num_gpus = get_flag(cli, "num-gpus", 1, 1);
  cfg.sched.iters = get_flag(cli, "iters", 4, 1);
  cfg.sched.slo_us = get_flag<std::uint64_t>(cli, "slo-us", 50000, 1);

  cfg.swap.cache_models = get_flag(cli, "cache-models", 1, 1);
  cfg.swap.load_gbps = cli.get_double("load-gbps", cfg.swap.load_gbps);
  cfg.swap.warm_swap_us = get_flag<std::uint64_t>(cli, "warm-swap-us", 200, 0);

  cfg.percentiles = cli.get_bool("exact", false) ? PercentileMode::kExact
                                                 : PercentileMode::kSketch;

  cfg.validate();
  return cfg;
}

report::RunReport make_sched_report(const SchedSweepConfig& cfg,
                                    const std::vector<SchedPoint>& points,
                                    const std::string& tool, int threads) {
  auto rep = zoo_report(cfg, cfg.sched, cfg.percentiles, tool, threads);
  for (const auto& p : points) {
    report::SchedPointReport head;
    head.mode = p.mode;
    head.rate_rps = p.rate_rps;
    push_scope_rows(rep.sched_points, head, p.metrics, cfg.sched.classes,
                    cfg.model_names);
  }
  return rep;
}

void FleetSchedSweepConfig::validate() const {
  VITBIT_CHECK_MSG(!model_names.empty(), "sweep needs >= 1 model");
  VITBIT_CHECK_MSG(!modes.empty(), "sweep needs >= 1 mode");
  VITBIT_CHECK_MSG(!routes.empty(), "sweep needs >= 1 route");
  MixedWorkloadConfig w = workload;
  w.num_models = static_cast<int>(model_names.size());
  validate_rates(w, rates_rps);
  VITBIT_CHECK_MSG(workload.classes.size() == fleet.shard.classes.size(),
                   "traffic classes (" << workload.classes.size()
                                       << ") and scheduling classes ("
                                       << fleet.shard.classes.size()
                                       << ") must pair up");
  for (const auto& m : modes) {
    SchedConfig s = fleet.shard;
    s.mode = m;
    s.validate();
  }
  fleet.validate();
  swap.validate();
}

std::vector<FleetSchedPoint> run_fleet_sched_sweep(
    const FleetSchedSweepConfig& cfg, const arch::OrinSpec& spec,
    const arch::Calibration& calib, ThreadPool* pool) {
  cfg.validate();
  // Phase 1: one memoized latency table per zoo model, shared immutably
  // by every shard of every sweep point.
  const ModelRegistry registry(cfg.model_names, cfg.strategy, spec, calib,
                               cfg.fleet.shard.max_batch, cfg.swap, pool);
  // Phase 2: one single-threaded fleet loop per (mode, route, rate)
  // point, fanned out over the pool in index order. The workload
  // regenerates from the shared seed, so every point faces the
  // byte-identical request stream.
  const auto n_modes = cfg.modes.size();
  const auto n_routes = cfg.routes.size();
  const auto n_rates = cfg.rates_rps.size();
  return parallel_map(pool, n_modes * n_routes * n_rates, [&](std::size_t i) {
    const std::size_t mi = i / (n_routes * n_rates);
    const std::size_t rem = i % (n_routes * n_rates);
    const std::size_t ri = rem / n_rates;
    const std::size_t r = rem % n_rates;
    MixedWorkloadConfig w = cfg.workload;
    w.rate_rps = cfg.rates_rps[r];
    w.num_models = static_cast<int>(cfg.model_names.size());
    FleetSchedConfig fc = cfg.fleet;
    fc.shard.mode = cfg.modes[mi];
    fc.route = cfg.routes[ri];
    FleetSchedPoint point;
    point.mode = cfg.modes[mi];
    point.route = cfg.routes[ri];
    point.rate_rps = w.rate_rps;
    point.metrics = simulate_fleet_sched(w, registry, fc);
    return point;
  });
}

Table fleet_sched_table(const FleetSchedSweepConfig& cfg,
                        const std::vector<FleetSchedPoint>& points) {
  Table t("scheduled fleet — " + std::to_string(cfg.fleet.num_shards) +
          " shards over " + join_list(cfg.model_names) + ", placement " +
          placement_policy_name(cfg.fleet.placement));
  t.header({"mode", "route", "rate (req/s)", "goodput", "p99 (ms)", "drop %",
            "preempt", "cold swaps", "util spread"});
  for (const auto& p : points) {
    auto& row = t.row();
    row.cell(p.mode)
        .cell(route_policy_name(p.route))
        .cell(p.rate_rps, 1)
        .cell(p.metrics.total.total.goodput_rps, 1)
        .cell(static_cast<double>(p.metrics.total.total.p99_us) / 1e3, 3)
        .cell(p.metrics.total.total.drop_rate * 100.0, 2)
        .cell(static_cast<double>(p.metrics.total.preemptions), 0)
        .cell(static_cast<double>(p.metrics.total.cold_swaps), 0)
        .cell(p.metrics.shard_util_max - p.metrics.shard_util_min, 3);
  }
  return t;
}

FleetSchedSweepConfig fleet_sched_config_from_cli(const Cli& cli) {
  // The zoo / traffic / per-shard scheduler surface is exactly the sched
  // sweep's flag set; the fleet knobs layer on top.
  SchedSweepConfig base = sched_config_from_cli(cli);
  FleetSchedSweepConfig cfg;
  cfg.model_names = std::move(base.model_names);
  cfg.strategy = base.strategy;
  cfg.modes = std::move(base.modes);
  cfg.rates_rps = std::move(base.rates_rps);
  cfg.workload = std::move(base.workload);
  cfg.swap = base.swap;
  cfg.fleet.shard = std::move(base.sched);
  cfg.fleet.percentiles = base.percentiles;

  auto& fleet = cfg.fleet;
  fleet.num_shards = get_flag(cli, "shards", 4, 1);
  if (cli.has("routes"))
    cfg.routes = parse_route_list(cli.get("routes", ""));
  else if (cli.has("route"))
    cfg.routes = {route_policy_from_name(cli.get("route", ""))};
  fleet.route_seed = static_cast<std::uint64_t>(cli.get_int("route-seed", 1));
  fleet.placement = placement_policy_from_name(cli.get("placement", "spread"));
  fleet.cold_route_classes = get_flag(cli, "cold-route-classes", 1, 0);
  read_autoscale_flags(cli, fleet.shard.num_gpus, fleet.autoscale);
  fleet.autoscale.up_preempt_per_s =
      cli.get_double("scale-preempt-per-s", 0.0);
  fleet.autoscale.up_slo_miss_rate =
      cli.get_double("scale-slo-miss-rate", 0.0);

  cfg.validate();
  return cfg;
}

report::RunReport make_fleet_sched_report(
    const FleetSchedSweepConfig& cfg,
    const std::vector<FleetSchedPoint>& points, const std::string& tool,
    int threads) {
  const auto& fleet = cfg.fleet;
  auto rep = zoo_report(cfg, fleet.shard, fleet.percentiles, tool, threads);
  std::vector<std::string> routes;
  for (const auto r : cfg.routes) routes.push_back(route_policy_name(r));
  rep.meta["routes"] = join_list(routes);
  rep.meta["shards"] = std::to_string(fleet.num_shards);
  rep.meta["route_seed"] = std::to_string(fleet.route_seed);
  rep.meta["placement"] = placement_policy_name(fleet.placement);
  rep.meta["cold_route_classes"] = std::to_string(fleet.cold_route_classes);
  add_autoscale_meta(rep, fleet.autoscale);
  rep.meta["scale_preempt_per_s"] = fmt_num(fleet.autoscale.up_preempt_per_s);
  rep.meta["scale_slo_miss_rate"] = fmt_num(fleet.autoscale.up_slo_miss_rate);
  for (const auto& p : points) {
    report::FleetSchedPointReport head;
    head.mode = p.mode;
    head.route = route_policy_name(p.route);
    head.rate_rps = p.rate_rps;
    const auto first = rep.fleet_sched_points.size();
    push_scope_rows(rep.fleet_sched_points, head, p.metrics.total,
                    fleet.shard.classes, cfg.model_names);
    auto& all = rep.fleet_sched_points[first];
    all.cold_swaps = p.metrics.total.cold_swaps;
    all.scale_ups = p.metrics.scale_ups;
    all.scale_downs = p.metrics.scale_downs;
    all.shard_util_min = p.metrics.shard_util_min;
    all.shard_util_max = p.metrics.shard_util_max;
  }
  return rep;
}

}  // namespace vitbit::serve
