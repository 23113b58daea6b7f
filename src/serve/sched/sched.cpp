#include "serve/sched/sched.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace vitbit::serve {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

}  // namespace

void SchedConfig::validate() const {
  VITBIT_CHECK_MSG(mode == "fifo" || mode == "timeout" || mode == "cb" ||
                       mode == "cb-pre",
                   "unknown scheduler mode: "
                       << mode << " (want fifo|timeout|cb|cb-pre)");
  VITBIT_CHECK_MSG(num_gpus >= 1, "num_gpus must be >= 1");
  VITBIT_CHECK_MSG(max_batch >= 1, "max_batch must be >= 1");
  VITBIT_CHECK_MSG(queue_capacity >= 1, "queue_capacity must be >= 1");
  VITBIT_CHECK_MSG(batch_timeout_us >= 1, "batch_timeout_us must be >= 1");
  VITBIT_CHECK_MSG(iters >= 1, "iters must be >= 1");
  VITBIT_CHECK_MSG(slo_us >= 1, "slo_us must be >= 1");
  VITBIT_CHECK_MSG(!classes.empty(), "scheduler needs >= 1 class");
  for (std::size_t c = 0; c < classes.size(); ++c) {
    VITBIT_CHECK_MSG(
        std::isfinite(classes[c].weight) && classes[c].weight > 0.0,
        "class " << classes[c].name << " weight must be positive finite");
    VITBIT_CHECK_MSG(classes[c].slo_us >= 1,
                     "class " << classes[c].name << " slo_us must be >= 1");
  }
  faults.validate();
  VITBIT_CHECK_MSG(faults.degrade_below_live <= num_gpus,
                   "degrade_below_live " << faults.degrade_below_live
                                         << " exceeds num_gpus " << num_gpus);
}

SchedSim::SchedSim(const ModelRegistry& registry, const SchedConfig& cfg,
                   PercentileMode percentiles, const AutoscaleConfig& autoscale,
                   const ModelRegistry* fallback)
    : registry_(registry),
      fallback_(fallback),
      cfg_(cfg),
      as_(autoscale),
      replicas_(static_cast<std::size_t>(
          autoscale.enabled() ? autoscale.max_replicas : cfg.num_gpus)),
      faults_(cfg.faults, static_cast<int>(replicas_.size())),
      class_queues_(cfg.classes.size()),
      served_(cfg.classes.size(), 0),
      flush_wake_us_(kNever),
      total_(percentiles,
             percentiles == PercentileMode::kSketch ? cfg.slo_us : 0),
      per_class_(
          [&cfg] {
            std::vector<std::uint64_t> slos;
            for (const auto& c : cfg.classes) slos.push_back(c.slo_us);
            return slos;
          }(),
          percentiles),
      per_model_(std::vector<std::uint64_t>(
                     static_cast<std::size_t>(registry.num_models()), 0),
                 percentiles) {
  cfg_.validate();
  as_.validate();
  mode_ = cfg_.mode == "fifo"      ? Mode::kFifo
          : cfg_.mode == "timeout" ? Mode::kTimeout
          : cfg_.mode == "cb"      ? Mode::kCb
                                   : Mode::kCbPre;
  const bool degrade = cfg_.faults.degrade_below_live > 0;
  VITBIT_CHECK_MSG(!degrade || fallback_ != nullptr,
                   "degrade_below_live > 0 requires a fallback registry");
  VITBIT_CHECK_MSG(
      !degrade || fallback_->num_models() == registry_.num_models(),
      "fallback registry holds " << fallback_->num_models() << " models, not "
                                 << registry_.num_models());
  const auto check_covers = [this](const ModelRegistry& reg) {
    for (int m = 0; m < reg.num_models(); ++m)
      VITBIT_CHECK_MSG(reg.table(m).max_batch() >= cfg_.max_batch,
                       "model " << reg.name(m)
                                << " latency table covers batches up to "
                                << reg.table(m).max_batch()
                                << ", scheduler needs " << cfg_.max_batch);
  };
  check_covers(registry_);
  if (degrade) check_covers(*fallback_);
  enabled_ = as_.enabled() ? std::clamp(cfg_.num_gpus, as_.min_replicas,
                                        as_.max_replicas)
                           : cfg_.num_gpus;
  // The first evaluation lands one interval in; t = 0 has no signal yet.
  next_autoscale_us_ = as_.interval_us;
  tick_preempted_.assign(cfg_.classes.size(), 0);
  tick_completed_.assign(cfg_.classes.size(), 0);
  tick_missed_.assign(cfg_.classes.size(), 0);
}

std::size_t SchedSim::total_depth() const {
  std::size_t n = fifo_queue_.size();
  for (const auto& q : class_queues_) n += q.size();
  return n;
}

void SchedSim::enqueue(const Request& r) {
  if (whole_batch())
    fifo_queue_.push_back(r);
  else
    class_queues_[static_cast<std::size_t>(r.cls)].push_back(r);
}

void SchedSim::fail_batch(Replica& rep, std::uint64_t t) {
  total_.on_batch_failure();
  for (const auto& res : rep.batch) {
    Request r = res.req;
    const int attempt = r.attempt + 1;
    const bool budget = attempt <= cfg_.faults.max_retries;
    const std::uint64_t ready =
        budget ? t + faults_.retry_delay_us(attempt) : 0;
    if (!budget || ready > r.arrival_us + cfg_.slo_us) {
      each_sink(r, [](MetricsSink& s) { s.on_shed(); });
      continue;
    }
    each_sink(r, [](MetricsSink& s) { s.on_retry(); });
    r.attempt = attempt;
    retries_.push_back({ready, r});
    std::push_heap(retries_.begin(), retries_.end(), RetryLater{});
  }
  rep.batch.clear();
  rep.running = false;
}

int SchedSim::live_enabled() const {
  int n = 0;
  for (int g = 0; g < enabled_; ++g)
    if (faults_.up(g)) ++n;
  return n;
}

void SchedSim::begin_step(std::uint64_t now) {
  // 1. Replica fault transitions due at `now` (lowest index first). A
  // replica going down aborts its running batch onto the retry path; the
  // partial busy time still counts against utilization.
  for (int g = 0; g < faults_.num_replicas(); ++g) {
    while (faults_.next_transition_us(g) <= now) {
      faults_.advance(g);
      touch(now);
      auto& rep = replicas_[static_cast<std::size_t>(g)];
      if (!faults_.up(g) && rep.running) {
        total_.on_batch(rep.batch.size(), now - rep.iter_start_us);
        fail_batch(rep, now);
      }
    }
  }
  if (cfg_.faults.degrade_below_live > 0) {
    const bool want = live_enabled() < cfg_.faults.degrade_below_live;
    if (want && !degraded_) {
      total_.on_failover();
      degraded_ = true;
      degraded_since_ = now;
    } else if (!want && degraded_) {
      total_.add_degraded_us(now - degraded_since_);
      degraded_ = false;
    }
  }

  // 2. Iteration (fifo/timeout: whole-batch) completions due at `now`,
  // lowest replica index first: record the executed iteration, then
  // retire residents whose last slice this was.
  for (auto& rep : replicas_) {
    if (!rep.running || rep.iter_done_us > now) continue;
    total_.on_batch(rep.batch.size(), rep.iter_done_us - rep.iter_start_us);
    rep.running = false;
    touch(now);
    if (rep.fail) {
      fail_batch(rep, now);
      continue;
    }
    std::vector<Resident> keep;
    keep.reserve(rep.batch.size());
    for (auto& res : rep.batch) {
      if (--res.remaining > 0) {
        keep.push_back(res);
        continue;
      }
      const auto& r = res.req;
      each_sink(r, [&](MetricsSink& s) { s.on_completion(r.arrival_us, now); });
      ++tick_completed_[static_cast<std::size_t>(r.cls)];
      if (now - r.arrival_us >
          cfg_.classes[static_cast<std::size_t>(r.cls)].slo_us)
        ++tick_missed_[static_cast<std::size_t>(r.cls)];
    }
    rep.batch = std::move(keep);
  }
}

void SchedSim::admit(std::uint64_t now, const Request& r) {
  touch(now);
  VITBIT_CHECK_MSG(r.cls >= 0 &&
                       r.cls < static_cast<int>(cfg_.classes.size()),
                   "request class " << r.cls << " outside the "
                                    << cfg_.classes.size() << " classes");
  VITBIT_CHECK_MSG(r.model >= 0 && r.model < registry_.num_models(),
                   "request model " << r.model << " outside the "
                                    << registry_.num_models()
                                    << "-model registry");
  each_sink(r, [](MetricsSink& s) { s.on_offered(); });
  if (total_depth() >= static_cast<std::size_t>(cfg_.queue_capacity)) {
    each_sink(r, [](MetricsSink& s) { s.on_drop(); });
    return;
  }
  enqueue(r);
  total_.on_queue_depth(now, total_depth());
}

void SchedSim::admit_due_retries(std::uint64_t now) {
  // A full queue sheds retries rather than dropping them — the request
  // was already admitted once and now exits the system for good.
  while (!retries_.empty() && retries_.front().ready_us <= now) {
    std::pop_heap(retries_.begin(), retries_.end(), RetryLater{});
    const Request r = retries_.back().req;
    retries_.pop_back();
    touch(now);
    if (total_depth() >= static_cast<std::size_t>(cfg_.queue_capacity)) {
      each_sink(r, [](MetricsSink& s) { s.on_shed(); });
      continue;
    }
    each_sink(r, [](MetricsSink& s) { s.on_requeue(); });
    enqueue(r);
    total_.on_queue_depth(now, total_depth());
  }
}

bool wrr_prefers(double weight_c, std::uint64_t served_c, double weight_b,
                 std::uint64_t served_b) {
  // weight_c * (served_b + 1) > weight_b * (served_c + 1), exactly: each
  // weight splits into a 53-bit integer mantissa and an exponent (frexp
  // yields the mantissa in [0.5, 1), so scaling by 2^53 is lossless for
  // every positive finite double, denormals included), the mantissa-
  // times-count products fit 128 bits with room to spare (< 2^117), and
  // the exponent gap shifts the larger-exponent side back in. A shift
  // that would pass 2^127 decides the comparison outright — the other
  // side is bounded by 2^117.
  int ec = 0;
  int eb = 0;
  auto lhs = static_cast<unsigned __int128>(std::ldexp(
                 std::frexp(weight_c, &ec), 53)) *
             (static_cast<unsigned __int128>(served_b) + 1);
  auto rhs = static_cast<unsigned __int128>(std::ldexp(
                 std::frexp(weight_b, &eb), 53)) *
             (static_cast<unsigned __int128>(served_c) + 1);
  const auto bits = [](unsigned __int128 v) {
    int n = 0;
    while (v != 0) {
      v >>= 1;
      ++n;
    }
    return n;
  };
  if (const int x = ec - eb; x > 0) {
    if (bits(lhs) + x > 127) return true;
    lhs <<= x;
  } else if (x < 0) {
    if (bits(rhs) - x > 127) return false;
    rhs <<= -x;
  }
  return lhs > rhs;
}

int SchedSim::pick_class(int model) const {
  // Smooth weighted round-robin: the eligible class maximizing
  // weight / (served + 1), compared by exact cross-multiplication (see
  // wrr_prefers — plain double products silently starve low-weight
  // classes at extreme weight ratios); ties resolve to the lower class
  // index (the higher priority).
  int best = -1;
  for (int c = 0; c < static_cast<int>(class_queues_.size()); ++c) {
    const auto& q = class_queues_[static_cast<std::size_t>(c)];
    if (q.empty()) continue;
    if (model >= 0 && q.front().model != model) continue;
    if (best < 0) {
      best = c;
      continue;
    }
    if (wrr_prefers(cfg_.classes[static_cast<std::size_t>(c)].weight,
                    served_[static_cast<std::size_t>(c)],
                    cfg_.classes[static_cast<std::size_t>(best)].weight,
                    served_[static_cast<std::size_t>(best)]))
      best = c;
  }
  return best;
}

Request SchedSim::pop_class(int c) {
  auto& q = class_queues_[static_cast<std::size_t>(c)];
  const Request r = q.front();
  q.pop_front();
  return r;
}

void SchedSim::activate_model(Replica& rep, int model) {
  if (rep.model == model) return;
  std::uint64_t cost = 0;
  const auto it = std::find(rep.cache.begin(), rep.cache.end(), model);
  if (rep.model < 0 && rep.cache.empty()) {
    // First load: weights are staged before traffic (free).
  } else if (it != rep.cache.end()) {
    cost = registry_.warm_swap_us();
    ++model_swaps_;
  } else {
    cost = registry_.cold_swap_us(model);
    ++model_swaps_;
    ++cold_swaps_;
  }
  if (it != rep.cache.end()) rep.cache.erase(it);
  rep.cache.push_back(model);
  while (rep.cache.size() >
         static_cast<std::size_t>(registry_.cache_capacity()))
    rep.cache.erase(rep.cache.begin());
  rep.model = model;
  swap_us_ += cost;
  rep.pending_swap_us += cost;
}

void SchedSim::start_iteration(Replica& rep, std::uint64_t now) {
  // Degraded mode charges new iterations to the fallback tables.
  const auto& reg = degraded_ ? *fallback_ : registry_;
  const auto lat = reg.table(rep.model).latency_us(rep.batch.size());
  std::uint64_t busy =
      whole_batch() ? lat
                    : std::max<std::uint64_t>(
                          1, lat / static_cast<std::uint64_t>(cfg_.iters));
  const auto fate = faults_.draw_batch_fate();
  if (fate.spike) busy = faults_.spiked_latency_us(busy);
  busy += rep.pending_swap_us;
  rep.pending_swap_us = 0;
  rep.fail = fate.fail;
  rep.running = true;
  rep.iter_start_us = now;
  rep.iter_done_us = now + busy;
  touch(now);
}

bool SchedSim::urgent(std::uint64_t now, const Request& r) const {
  // Would miss its class deadline even dispatched alone right now —
  // waiting one more round-robin turn cannot end well.
  return now + registry_.table(r.model).latency_us(1) >
         r.arrival_us + cfg_.classes[static_cast<std::size_t>(r.cls)].slo_us;
}

void SchedSim::admit_urgent(Replica& rep, std::uint64_t now) {
  // Deadline-first pass (cb-pre): urgent queue heads are admitted ahead
  // of the round-robin order, highest priority class first. When the
  // batch is full, the most recently joined resident of a strictly lower
  // class is preempted — its partial work is lost and it restarts from
  // the front of its class queue (bypassing the admission bound: it was
  // already admitted once and must conserve).
  for (int c = 0; c < static_cast<int>(class_queues_.size()); ++c) {
    auto& q = class_queues_[static_cast<std::size_t>(c)];
    while (!q.empty() && urgent(now, q.front())) {
      const Request& head = q.front();
      if (rep.model >= 0 && !rep.batch.empty() && head.model != rep.model)
        break;  // cannot join a busy different-model batch
      if (rep.batch.size() >= static_cast<std::size_t>(cfg_.max_batch)) {
        std::size_t victim = rep.batch.size();
        for (std::size_t i = 0; i < rep.batch.size(); ++i) {
          if (rep.batch[i].req.cls <= c) continue;
          if (victim == rep.batch.size() ||
              rep.batch[i].req.cls > rep.batch[victim].req.cls ||
              (rep.batch[i].req.cls == rep.batch[victim].req.cls &&
               rep.batch[i].join_seq > rep.batch[victim].join_seq))
            victim = i;
        }
        if (victim == rep.batch.size()) break;  // nobody outranked
        const Request evicted = rep.batch[victim].req;
        rep.batch.erase(rep.batch.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        class_queues_[static_cast<std::size_t>(evicted.cls)].push_front(
            evicted);
        ++preemptions_;
        ++tick_preempted_[static_cast<std::size_t>(evicted.cls)];
        total_.on_queue_depth(now, total_depth());
      }
      const Request r = pop_class(c);
      if (rep.batch.empty()) activate_model(rep, r.model);
      rep.batch.push_back({r, cfg_.iters, join_seq_++});
      ++served_[static_cast<std::size_t>(r.cls)];
      total_.on_queue_depth(now, total_depth());
    }
  }
}

void SchedSim::fill_wrr(Replica& rep, std::uint64_t now) {
  while (rep.batch.size() < static_cast<std::size_t>(cfg_.max_batch)) {
    const int constraint = rep.batch.empty() ? -1 : rep.model;
    const int c = pick_class(constraint);
    if (c < 0) return;
    const Request r = pop_class(c);
    if (rep.batch.empty()) activate_model(rep, r.model);
    rep.batch.push_back({r, cfg_.iters, join_seq_++});
    ++served_[static_cast<std::size_t>(r.cls)];
    total_.on_queue_depth(now, total_depth());
  }
}

void SchedSim::dispatch_whole(std::uint64_t now) {
  // Whole same-model prefix batches onto idle live replicas, lowest
  // replica index first. The flush rule runs before every pop: fifo
  // always dispatches; timeout waits for a full batch or for the head
  // request's deadline, whose wake time bounds the idle stretch.
  flush_wake_us_ = kNever;
  const auto max_batch = static_cast<std::size_t>(cfg_.max_batch);
  while (!fifo_queue_.empty()) {
    Replica* idle = nullptr;
    for (int g = 0; g < enabled_; ++g) {
      auto& rep = replicas_[static_cast<std::size_t>(g)];
      if (faults_.up(g) && rep.batch.empty() && !rep.running) {
        idle = &rep;
        break;
      }
    }
    if (idle == nullptr) break;
    const int model = fifo_queue_.front().model;
    std::size_t n = 0;
    while (n < fifo_queue_.size() && n < max_batch &&
           fifo_queue_[n].model == model)
      ++n;
    if (mode_ == Mode::kTimeout && n < max_batch) {
      const auto deadline =
          fifo_queue_.front().arrival_us + cfg_.batch_timeout_us;
      if (now < deadline) {
        flush_wake_us_ = deadline;
        break;
      }
    }
    std::vector<Resident> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back({fifo_queue_.front(), 1, join_seq_++});
      fifo_queue_.pop_front();
    }
    total_.on_queue_depth(now, total_depth());
    activate_model(*idle, model);
    idle->batch = std::move(batch);
    start_iteration(*idle, now);
  }
}

void SchedSim::dispatch_cb(std::uint64_t now) {
  // Every live replica standing at an iteration boundary (or idle)
  // refills: finished residents already left in begin_step, queued
  // same-model requests join, and the next iteration is scheduled from
  // the current batch size. An emptied replica may switch models (swap
  // charged to the first iteration of the new batch).
  for (int g = 0; g < enabled_; ++g) {
    auto& rep = replicas_[static_cast<std::size_t>(g)];
    if (rep.running || !faults_.up(g)) continue;
    if (mode_ == Mode::kCbPre) admit_urgent(rep, now);
    fill_wrr(rep, now);
    if (rep.batch.empty()) continue;  // nothing eligible; replica idles
    start_iteration(rep, now);
  }
}

void SchedSim::dispatch(std::uint64_t now) {
  if (whole_batch())
    dispatch_whole(now);
  else
    dispatch_cb(now);
}

void SchedSim::accrue_replica_time(std::uint64_t now) {
  replica_time_integral_us_ += static_cast<std::uint64_t>(enabled_) *
                               (now - last_enabled_change_us_);
  last_enabled_change_us_ = now;
}

std::uint64_t SchedSim::cooldown_expiry_us(std::uint64_t t) const {
  // Saturating t + cooldown: a near-uint64-max cooldown means "never
  // scale again", not an overflow past zero that re-arms at the very
  // next tick — including the first tick after virtual time 0.
  return t > kNever - as_.cooldown_us ? kNever : t + as_.cooldown_us;
}

void SchedSim::maybe_autoscale(std::uint64_t now) {
  if (!as_.enabled()) return;
  while (next_autoscale_us_ <= now) {
    const std::uint64_t t = next_autoscale_us_;
    next_autoscale_us_ += as_.interval_us;
    // Per-class signal rates over the closing interval. The counters
    // reset at every tick — cooldown or not — so each decision sees one
    // interval's worth of signal, never a backlog.
    bool class_hot = false;
    for (std::size_t c = 0; c < cfg_.classes.size(); ++c) {
      if (as_.up_preempt_per_s > 0.0 &&
          static_cast<double>(tick_preempted_[c]) * 1e6 /
                  static_cast<double>(as_.interval_us) >
              as_.up_preempt_per_s)
        class_hot = true;
      if (as_.up_slo_miss_rate > 0.0 && tick_completed_[c] > 0 &&
          static_cast<double>(tick_missed_[c]) /
                  static_cast<double>(tick_completed_[c]) >
              as_.up_slo_miss_rate)
        class_hot = true;
      tick_preempted_[c] = 0;
      tick_completed_[c] = 0;
      tick_missed_[c] = 0;
    }
    if (t < cooldown_until_us_) continue;
    const std::size_t depth = total_depth();
    const bool hot = class_hot || depth > as_.up_queue_depth ||
                     (as_.up_p99_us > 0 &&
                      total_.running_p99_us() > as_.up_p99_us);
    if (hot && enabled_ < as_.max_replicas) {
      accrue_replica_time(t);
      ++enabled_;
      ++scale_ups_;
      cooldown_until_us_ = cooldown_expiry_us(t);
      touch(t);
      continue;
    }
    // Only a replica that is neither running nor holding residents is
    // retired — never abort or strand partial work.
    const auto& top = replicas_[static_cast<std::size_t>(enabled_ - 1)];
    if (!hot && depth <= as_.down_queue_depth &&
        enabled_ > as_.min_replicas && !top.running && top.batch.empty()) {
      accrue_replica_time(t);
      --enabled_;
      ++scale_downs_;
      cooldown_until_us_ = cooldown_expiry_us(t);
      touch(t);
    }
  }
}

std::uint64_t SchedSim::next_internal_event_us() const {
  std::uint64_t t = flush_wake_us_;
  if (!retries_.empty()) t = std::min(t, retries_.front().ready_us);
  for (const auto& rep : replicas_)
    if (rep.running) t = std::min(t, rep.iter_done_us);
  return t;
}

std::uint64_t SchedSim::next_timer_us() const {
  std::uint64_t t = as_.enabled() ? next_autoscale_us_ : kNever;
  for (int g = 0; g < faults_.num_replicas(); ++g)
    t = std::min(t, faults_.next_transition_us(g));
  return t;
}

bool SchedSim::idle() const {
  if (total_depth() != 0 || !retries_.empty()) return false;
  for (const auto& rep : replicas_)
    if (!rep.batch.empty()) return false;
  return true;
}

std::size_t SchedSim::load() const {
  std::size_t n = total_depth();
  for (const auto& rep : replicas_) n += rep.batch.size();
  return n;
}

bool SchedSim::warm_for(int model) const {
  for (int g = 0; g < enabled_; ++g) {
    const auto& rep = replicas_[static_cast<std::size_t>(g)];
    if (rep.model == model) return true;
    if (std::find(rep.cache.begin(), rep.cache.end(), model) !=
        rep.cache.end())
      return true;
  }
  return false;
}

void SchedSim::prestage(int model) {
  VITBIT_CHECK_MSG(model >= 0 && model < registry_.num_models(),
                   "prestage model " << model << " outside the "
                                     << registry_.num_models()
                                     << "-model registry");
  // Every replica — including ones beyond the enabled window — so a
  // later scale-up comes online warm for the placed model.
  for (auto& rep : replicas_) {
    rep.model = model;
    rep.cache.assign(1, model);
  }
}

const MetricsSink& SchedSim::class_sink(std::size_t c) const {
  return per_class_.at(c);
}

const MetricsSink& SchedSim::model_sink(std::size_t m) const {
  return per_model_.at(m);
}

SchedMetrics SchedSim::finalize(std::uint64_t end_us) {
  if (degraded_) {
    total_.add_degraded_us(end_us - degraded_since_);
    degraded_ = false;
  }
  if (as_.enabled()) {
    // Exact available-replica-time under autoscaling; without it the
    // sink falls back to num_gpus * end_us (the fixed-pool case).
    accrue_replica_time(end_us);
    total_.add_replica_time_us(replica_time_integral_us_);
  }
  SchedMetrics m;
  m.total = total_.finalize(cfg_.num_gpus, end_us, cfg_.slo_us);
  m.per_class = per_class_.finalize(cfg_.num_gpus, end_us);
  m.per_model = per_model_.finalize(cfg_.num_gpus, end_us);
  m.preemptions = preemptions_;
  m.model_swaps = model_swaps_;
  m.cold_swaps = cold_swaps_;
  m.swap_us = swap_us_;
  return m;
}

}  // namespace vitbit::serve
