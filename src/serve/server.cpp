#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "nn/vit_model.h"

namespace vitbit::serve {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

std::string fmt_rate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", rate);
  return buf;
}

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

LatencyTable build_latency_table(const nn::VitConfig& model,
                                 core::Strategy strategy,
                                 const core::StrategyConfig& cfg,
                                 const arch::OrinSpec& spec,
                                 const arch::Calibration& calib, int max_batch,
                                 ThreadPool* pool) {
  return build_latency_tables(model, {strategy}, cfg, spec, calib, max_batch,
                              pool)
      .front();
}

void ServerConfig::validate() const {
  batcher.validate();
  VITBIT_CHECK_MSG(num_gpus >= 1, "num_gpus must be >= 1");
  VITBIT_CHECK_MSG(slo_us >= 1, "slo_us must be >= 1");
  faults.validate();
  VITBIT_CHECK_MSG(faults.degrade_below_live <= num_gpus,
                   "degrade_below_live " << faults.degrade_below_live
                                         << " exceeds num_gpus " << num_gpus);
  make_policy(policy);  // throws on an unknown name
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

ShardSim::ShardSim(const LatencyTable& latency, const ServerConfig& cfg,
                   const LatencyTable* fallback, PercentileMode mode,
                   const AutoscaleConfig& autoscale)
    : latency_(latency),
      fallback_(fallback),
      cfg_(cfg),
      as_(autoscale),
      policy_(make_policy(cfg.policy)),
      queue_(cfg.batcher.queue_capacity),
      sink_(mode, mode == PercentileMode::kSketch ? cfg.slo_us : 0),
      faults_(cfg.faults,
              autoscale.enabled() ? autoscale.max_replicas : cfg.num_gpus),
      running_(static_cast<std::size_t>(
          autoscale.enabled() ? autoscale.max_replicas : cfg.num_gpus)),
      policy_wake_us_(kNever) {
  cfg_.validate();
  as_.validate();
  VITBIT_CHECK_MSG(latency_.max_batch() >= cfg_.batcher.max_batch_size,
                   "latency table covers batches up to "
                       << latency_.max_batch() << ", batcher needs "
                       << cfg_.batcher.max_batch_size);
  if (cfg_.faults.degrade_below_live > 0) {
    VITBIT_CHECK_MSG(fallback_ != nullptr,
                     "degrade_below_live > 0 requires a fallback table");
    VITBIT_CHECK_MSG(fallback_->max_batch() >= cfg_.batcher.max_batch_size,
                     "fallback table covers batches up to "
                         << fallback_->max_batch() << ", batcher needs "
                         << cfg_.batcher.max_batch_size);
  }
  enabled_ = as_.enabled() ? std::clamp(cfg_.num_gpus, as_.min_replicas,
                                        as_.max_replicas)
                           : cfg_.num_gpus;
  // The first evaluation lands one interval in; t = 0 has no signal yet.
  next_autoscale_us_ = as_.interval_us;
}

// Routes a failed or aborted batch through the retry budget: each request
// either schedules its next attempt after exponential backoff or is shed
// when the budget or its SLO deadline is exhausted.
void ShardSim::fail_batch(std::uint64_t t, std::vector<Request>&& batch) {
  sink_.on_batch_failure();
  for (auto& r : batch) {
    const int attempt = r.attempt + 1;
    if (attempt > cfg_.faults.max_retries) {
      sink_.on_shed();
      continue;
    }
    const std::uint64_t ready = t + faults_.retry_delay_us(attempt);
    if (ready > r.arrival_us + cfg_.slo_us) {
      sink_.on_shed();
      continue;
    }
    sink_.on_retry();
    r.attempt = attempt;
    retries_.push_back({ready, r});
    std::push_heap(retries_.begin(), retries_.end(), RetryLater{});
  }
}

void ShardSim::accrue_replica_time(std::uint64_t now) {
  replica_time_integral_us_ += static_cast<std::uint64_t>(enabled_) *
                               (now - last_enabled_change_us_);
  last_enabled_change_us_ = now;
}

int ShardSim::live_enabled() const {
  int n = 0;
  for (int g = 0; g < enabled_; ++g)
    if (faults_.up(g)) ++n;
  return n;
}

void ShardSim::begin_step(std::uint64_t now) {
  // 1. Replica fault transitions due at `now` (lowest index first). A
  // replica going down aborts its in-flight batch onto the retry path;
  // the partial busy time still counts against utilization. Disabled
  // replicas keep their schedules ticking but never hold work.
  const int capacity = static_cast<int>(running_.size());
  for (int g = 0; g < capacity; ++g) {
    while (faults_.next_transition_us(g) <= now) {
      faults_.advance(g);
      touch(now);
      auto& fl = running_[static_cast<std::size_t>(g)];
      if (!faults_.up(g) && fl.active) {
        sink_.on_batch(fl.batch.size(), now - fl.started_us);
        in_flight_requests_ -= fl.batch.size();
        fail_batch(now, std::move(fl.batch));
        fl = InFlight{};
      }
    }
  }
  if (cfg_.faults.degrade_below_live > 0) {
    const bool want = live_enabled() < cfg_.faults.degrade_below_live;
    if (want && !degraded_) {
      sink_.on_failover();
      degraded_ = true;
      degraded_since_ = now;
    } else if (!want && degraded_) {
      sink_.add_degraded_us(now - degraded_since_);
      degraded_ = false;
    }
  }

  // 2. Batch completions due at `now` (lowest replica index first).
  // Failed batches requeue; successful ones record per-request latency.
  for (auto& fl : running_) {
    if (!fl.active || fl.done_us > now) continue;
    sink_.on_batch(fl.batch.size(), fl.done_us - fl.started_us);
    in_flight_requests_ -= fl.batch.size();
    touch(now);
    if (fl.fail) {
      fail_batch(fl.done_us, std::move(fl.batch));
    } else {
      for (const auto& r : fl.batch)
        sink_.on_completion(r.arrival_us, fl.done_us);
    }
    fl = InFlight{};
  }
}

void ShardSim::maybe_autoscale(std::uint64_t now) {
  if (!as_.enabled()) return;
  while (next_autoscale_us_ <= now) {
    const std::uint64_t t = next_autoscale_us_;
    next_autoscale_us_ += as_.interval_us;
    if (t < cooldown_until_us_) continue;
    const std::size_t depth = queue_.depth();
    const bool hot =
        depth > as_.up_queue_depth ||
        (as_.up_p99_us > 0 && sink_.running_p99_us() > as_.up_p99_us);
    if (hot && enabled_ < as_.max_replicas) {
      accrue_replica_time(t);
      ++enabled_;
      ++scale_ups_;
      cooldown_until_us_ = cooldown_expiry_us(t);
      touch(t);
      continue;
    }
    // Only a fully idle top replica is retired — never abort work.
    if (!hot && depth <= as_.down_queue_depth &&
        enabled_ > as_.min_replicas &&
        !running_[static_cast<std::size_t>(enabled_ - 1)].active) {
      accrue_replica_time(t);
      --enabled_;
      ++scale_downs_;
      cooldown_until_us_ = cooldown_expiry_us(t);
      touch(t);
    }
  }
}

std::uint64_t ShardSim::cooldown_expiry_us(std::uint64_t t) const {
  // Saturating t + cooldown: a near-uint64-max cooldown (for instance a
  // negative CLI value wrapped through the unsigned cast) must mean
  // "never scale again", not overflow past zero and re-arm at the very
  // next decision tick — including the first tick after virtual time 0.
  return t > kNever - as_.cooldown_us ? kNever : t + as_.cooldown_us;
}

void ShardSim::admit(std::uint64_t now, const Request& r) {
  touch(now);
  sink_.on_offered();
  if (queue_.offer(r))
    sink_.on_queue_depth(now, queue_.depth());
  else
    sink_.on_drop();
}

void ShardSim::admit_due_retries(std::uint64_t now) {
  // A full queue sheds retries rather than dropping them — the request
  // was already admitted once and now exits the system for good.
  while (!retries_.empty() && retries_.front().ready_us <= now) {
    std::pop_heap(retries_.begin(), retries_.end(), RetryLater{});
    const Request r = retries_.back().req;
    retries_.pop_back();
    touch(now);
    if (queue_.offer(r)) {
      sink_.on_requeue();
      sink_.on_queue_depth(now, queue_.depth());
    } else {
      sink_.on_shed();
    }
  }
}

void ShardSim::dispatch(std::uint64_t now) {
  // Dispatch onto idle live enabled replicas (lowest index first) while
  // the policy agrees; its wake time bounds the idle stretch otherwise.
  // Degraded mode charges new batches to the fallback table.
  policy_wake_us_ = kNever;
  while (!queue_.empty()) {
    int idle = -1;
    for (int g = 0; g < enabled_; ++g)
      if (faults_.up(g) && !running_[static_cast<std::size_t>(g)].active) {
        idle = g;
        break;
      }
    if (idle < 0) break;
    const auto decision = policy_->decide(now, queue_.depth(),
                                          queue_.front().arrival_us,
                                          cfg_.batcher);
    if (!decision.dispatch) {
      VITBIT_CHECK_MSG(decision.wake_us > now,
                       "policy wait must wake strictly in the future");
      policy_wake_us_ = decision.wake_us;
      break;
    }
    auto batch = queue_.pop_batch(
        static_cast<std::size_t>(cfg_.batcher.max_batch_size));
    sink_.on_queue_depth(now, queue_.depth());
    const LatencyTable& table = degraded_ ? *fallback_ : latency_;
    const auto fate = faults_.draw_batch_fate();
    std::uint64_t busy = table.latency_us(batch.size());
    if (fate.spike) busy = faults_.spiked_latency_us(busy);
    auto& fl = running_[static_cast<std::size_t>(idle)];
    fl.active = true;
    fl.fail = fate.fail;
    fl.started_us = now;
    fl.done_us = now + busy;
    in_flight_requests_ += batch.size();
    touch(now);
    fl.batch = std::move(batch);
  }
}

std::uint64_t ShardSim::next_internal_event_us() const {
  std::uint64_t t = policy_wake_us_;
  if (!retries_.empty()) t = std::min(t, retries_.front().ready_us);
  for (const auto& fl : running_)
    if (fl.active) t = std::min(t, fl.done_us);
  return t;
}

std::uint64_t ShardSim::next_timer_us() const {
  std::uint64_t t = kNever;
  const int capacity = static_cast<int>(running_.size());
  for (int g = 0; g < capacity; ++g)
    t = std::min(t, faults_.next_transition_us(g));
  if (as_.enabled()) t = std::min(t, next_autoscale_us_);
  return t;
}

bool ShardSim::idle() const {
  return queue_.empty() && retries_.empty() && in_flight_requests_ == 0;
}

ServeMetrics ShardSim::finalize(std::uint64_t end_us) {
  if (degraded_) {
    sink_.add_degraded_us(end_us - degraded_since_);
    degraded_ = false;
  }
  if (as_.enabled()) {
    accrue_replica_time(end_us);
    sink_.add_replica_time_us(replica_time_integral_us_);
  }
  return sink_.finalize(cfg_.num_gpus, end_us, cfg_.slo_us);
}

ServeMetrics simulate_server(const std::vector<Request>& workload,
                             const LatencyTable& latency,
                             const ServerConfig& cfg,
                             const LatencyTable* fallback) {
  // The one-shard special case of the fleet loop (serve/cluster.h), kept
  // as the canonical single-server entry point. The step order below is
  // the determinism contract; reports are byte-identical to the
  // pre-ShardSim loop.
  ShardSim sim(latency, cfg, fallback);
  std::size_t next_arrival = 0;
  std::uint64_t now = 0;
  std::uint64_t end = 0;
  while (true) {
    sim.begin_step(now);
    // Admissions due at `now`: fresh arrivals first (ties: arrivals land
    // before dispatch decisions at the same timestamp), then retries
    // whose backoff has elapsed, in (ready time, request id) order.
    while (next_arrival < workload.size() &&
           workload[next_arrival].arrival_us <= now)
      sim.admit(now, workload[next_arrival++]);
    sim.admit_due_retries(now);
    sim.dispatch(now);
    // Advance to the next event: an arrival, a retry coming due, a batch
    // completion, the policy's wake-up, or a fault transition. Fault
    // transitions only keep the loop alive while work remains — the
    // infinite up/down schedule must not outlive the last request.
    std::uint64_t t_next = sim.next_internal_event_us();
    if (next_arrival < workload.size())
      t_next = std::min(t_next, workload[next_arrival].arrival_us);
    if (next_arrival >= workload.size() && sim.idle()) break;  // drained
    t_next = std::min(t_next, sim.next_timer_us());
    VITBIT_CHECK_MSG(t_next != kNever && t_next > now,
                     "event loop failed to advance");
    now = t_next;
    end = std::max(end, now);
  }

  const auto m = sim.finalize(end);
  VITBIT_CHECK_MSG(m.offered == m.completed + m.dropped + m.shed,
                   "request conservation violated at drain: offered "
                       << m.offered << " != completed " << m.completed
                       << " + dropped " << m.dropped << " + shed " << m.shed);
  return m;
}

std::vector<SweepPoint> run_rate_sweep(const SweepConfig& cfg,
                                       const arch::OrinSpec& spec,
                                       const arch::Calibration& calib,
                                       ThreadPool* pool) {
  VITBIT_CHECK_MSG(!cfg.strategies.empty(), "sweep needs >= 1 strategy");
  VITBIT_CHECK_MSG(!cfg.rates_rps.empty(), "sweep needs >= 1 rate");
  cfg.server.validate();

  // Phase 1: memoized latency tables through the shared validated
  // builder. The fallback strategy rides along only when degraded-mode
  // failover is enabled and it is not already being swept (the common
  // TC-next-to-VitBit sweep costs no extra simulations).
  const bool degrade_on = cfg.server.faults.degrade_below_live > 0;
  auto to_build = cfg.strategies;
  std::size_t fallback_idx = 0;
  if (degrade_on) {
    const auto it =
        std::find(to_build.begin(), to_build.end(), cfg.fallback_strategy);
    fallback_idx = static_cast<std::size_t>(it - to_build.begin());
    if (it == to_build.end()) to_build.push_back(cfg.fallback_strategy);
  }
  const auto tables =
      build_latency_tables(cfg.model, to_build, cfg.strategy_cfg, spec, calib,
                           cfg.server.batcher.max_batch_size, pool);
  const LatencyTable* fallback = degrade_on ? &tables[fallback_idx] : nullptr;

  // Phase 2: the event loop per (strategy, rate) point. Workloads are
  // regenerated per point from the shared seed, so both strategies at one
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
    point.metrics = simulate_server(generate_workload(w), tables[s],
                                    cfg.server, fallback);
    return point;
  });
}

Table sweep_table(const SweepConfig& cfg,
                  const std::vector<SweepPoint>& points) {
  Table t("serving simulation — " + std::string("rate sweep, ") +
          arrival_kind_name(cfg.workload.kind) + " arrivals, policy=" +
          cfg.server.policy);
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
  return out;
}

SweepConfig sweep_config_from_cli(const Cli& cli) {
  SweepConfig cfg;
  cfg.model = nn::vit_base();
  cfg.model.num_layers =
      static_cast<int>(cli.get_int("layers", cfg.model.num_layers));

  if (cli.has("rates"))
    cfg.rates_rps = parse_rate_list(cli.get("rates", ""));
  else if (cli.has("rate"))
    cfg.rates_rps = {cli.get_double("rate", 0.0)};
  cfg.workload.kind = arrival_kind_from_name(cli.get("arrival", "poisson"));
  cfg.workload.duration_s = cli.get_double("duration-s", 2.0);
  cfg.workload.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  cfg.server.policy = cli.get("policy", "timeout");
  cfg.server.batcher.max_batch_size =
      static_cast<int>(cli.get_int("max-batch", 8));
  cfg.server.batcher.batch_timeout_us =
      static_cast<std::uint64_t>(cli.get_int("batch-timeout-us", 2000));
  cfg.server.batcher.queue_capacity =
      static_cast<int>(cli.get_int("queue-capacity", 64));
  cfg.server.num_gpus = static_cast<int>(cli.get_int("num-gpus", 1));
  cfg.server.slo_us = static_cast<std::uint64_t>(cli.get_int("slo-us", 50000));

  auto& f = cfg.server.faults;
  f.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  f.replica_mtbf_s = cli.get_double("mtbf-s", 0.0);
  f.replica_mttr_s = cli.get_double("mttr-s", 0.05);
  f.batch_failure_prob = cli.get_double("batch-fail-prob", 0.0);
  f.latency_spike_prob = cli.get_double("spike-prob", 0.0);
  f.latency_spike_mult = cli.get_double("spike-mult", 4.0);
  f.max_retries = static_cast<int>(cli.get_int("max-retries", 2));
  f.retry_backoff_us =
      static_cast<std::uint64_t>(cli.get_int("retry-backoff-us", 1000));
  f.degrade_below_live = static_cast<int>(cli.get_int("degrade-below", 0));

  const std::string fb = cli.get("fallback", "TC");
  bool found = false;
  for (const auto s : core::all_strategies())
    if (fb == core::strategy_name(s)) {
      cfg.fallback_strategy = s;
      found = true;
      break;
    }
  VITBIT_CHECK_MSG(found, "unknown fallback strategy: " << fb);

  cfg.server.validate();
  return cfg;
}

report::RunReport make_serve_report(const SweepConfig& cfg,
                                    const std::vector<SweepPoint>& points,
                                    const std::string& tool, int threads) {
  report::RunReport rep;
  rep.tool = tool;
  rep.meta = report::build_metadata();
  rep.meta["model"] = "vit";
  rep.meta["layers"] = std::to_string(cfg.model.num_layers);
  rep.meta["arrival"] = arrival_kind_name(cfg.workload.kind);
  rep.meta["duration_s"] = fmt_rate(cfg.workload.duration_s);
  rep.meta["seed"] = std::to_string(cfg.workload.seed);
  rep.meta["policy"] = cfg.server.policy;
  rep.meta["max_batch_size"] =
      std::to_string(cfg.server.batcher.max_batch_size);
  rep.meta["batch_timeout_us"] =
      std::to_string(cfg.server.batcher.batch_timeout_us);
  rep.meta["queue_capacity"] =
      std::to_string(cfg.server.batcher.queue_capacity);
  rep.meta["num_gpus"] = std::to_string(cfg.server.num_gpus);
  rep.meta["slo_us"] = std::to_string(cfg.server.slo_us);
  const auto& f = cfg.server.faults;
  rep.meta["fault_seed"] = std::to_string(f.seed);
  rep.meta["mtbf_s"] = fmt_rate(f.replica_mtbf_s);
  rep.meta["mttr_s"] = fmt_rate(f.replica_mttr_s);
  rep.meta["batch_fail_prob"] = fmt_rate(f.batch_failure_prob);
  rep.meta["spike_prob"] = fmt_rate(f.latency_spike_prob);
  rep.meta["spike_mult"] = fmt_rate(f.latency_spike_mult);
  rep.meta["max_retries"] = std::to_string(f.max_retries);
  rep.meta["retry_backoff_us"] = std::to_string(f.retry_backoff_us);
  rep.meta["degrade_below_live"] = std::to_string(f.degrade_below_live);
  rep.meta["fallback"] = core::strategy_name(cfg.fallback_strategy);
  rep.threads = threads;
  for (const auto& p : points) {
    report::ServePointReport sp;
    sp.strategy = core::strategy_name(p.strategy);
    sp.policy = cfg.server.policy;
    sp.arrival = arrival_kind_name(cfg.workload.kind);
    sp.rate_rps = p.rate_rps;
    sp.offered = p.metrics.offered;
    sp.completed = p.metrics.completed;
    sp.dropped = p.metrics.dropped;
    sp.batch_failures = p.metrics.batch_failures;
    sp.retries = p.metrics.retries;
    sp.requeued = p.metrics.requeued;
    sp.shed = p.metrics.shed;
    sp.failovers = p.metrics.failovers;
    sp.degraded_s = p.metrics.degraded_s;
    sp.batches = p.metrics.batches;
    sp.mean_batch_size = p.metrics.mean_batch_size;
    sp.drop_rate = p.metrics.drop_rate;
    sp.throughput_rps = p.metrics.throughput_rps;
    sp.goodput_rps = p.metrics.goodput_rps;
    sp.utilization = p.metrics.utilization;
    sp.mean_queue_depth = p.metrics.mean_queue_depth;
    sp.max_queue_depth = p.metrics.max_queue_depth;
    sp.p50_us = p.metrics.p50_us;
    sp.p90_us = p.metrics.p90_us;
    sp.p95_us = p.metrics.p95_us;
    sp.p99_us = p.metrics.p99_us;
    rep.serve_points.push_back(std::move(sp));
  }
  return rep;
}

}  // namespace vitbit::serve
