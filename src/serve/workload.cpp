#include "serve/workload.h"

#include <cmath>

#include "common/check.h"

namespace vitbit::serve {

namespace {

std::uint64_t to_us(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

// Rates, durations and phase means: an infinite one would never end the
// stream.
bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

const char* arrival_kind_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kUniform:
      return "uniform";
    case ArrivalKind::kBursty:
      return "bursty";
  }
  return "?";
}

ArrivalKind arrival_kind_from_name(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "uniform") return ArrivalKind::kUniform;
  if (name == "bursty") return ArrivalKind::kBursty;
  VITBIT_CHECK_MSG(false, "unknown arrival kind: " << name
                                                   << " (want poisson|uniform|"
                                                      "bursty)");
  return ArrivalKind::kPoisson;
}

void WorkloadConfig::validate() const {
  VITBIT_CHECK_MSG(positive_finite(rate_rps),
                   "workload rate must be positive finite");
  VITBIT_CHECK_MSG(positive_finite(duration_s),
                   "workload duration must be positive finite");
  VITBIT_CHECK_MSG(kind != ArrivalKind::kBursty ||
                       (positive_finite(burst_on_s) &&
                        positive_finite(burst_off_s)),
                   "bursty phase means must be positive finite");
}

WorkloadStream::WorkloadStream(const WorkloadConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  cfg_.validate();
  if (cfg_.kind == ArrivalKind::kBursty) {
    // Scale the on-phase rate so the duty-cycled average is rate_rps.
    on_rate_ = cfg_.rate_rps * (cfg_.burst_on_s + cfg_.burst_off_s) /
               cfg_.burst_on_s;
    phase_end_s_ = rng_.exp_double(1.0 / cfg_.burst_on_s);
  }
  advance();
}

std::uint64_t WorkloadStream::peek_arrival_us() const {
  VITBIT_CHECK_MSG(has_next_, "peek past the end of the workload stream");
  return pending_.arrival_us;
}

Request WorkloadStream::next() {
  VITBIT_CHECK_MSG(has_next_, "next past the end of the workload stream");
  const Request out = pending_;
  advance();
  return out;
}

// Draw-for-draw identical to the pre-streaming generate_workload loops,
// restated as one resumable step per emitted request.
void WorkloadStream::advance() {
  has_next_ = false;
  switch (cfg_.kind) {
    case ArrivalKind::kPoisson: {
      now_s_ += rng_.exp_double(cfg_.rate_rps);
      if (now_s_ >= cfg_.duration_s) return;
      break;
    }
    case ArrivalKind::kUniform: {
      const double mean = 1.0 / cfg_.rate_rps;
      now_s_ += rng_.uniform(0.5 * mean, 1.5 * mean);
      if (now_s_ >= cfg_.duration_s) return;
      break;
    }
    case ArrivalKind::kBursty: {
      while (now_s_ < cfg_.duration_s) {
        if (!on_) {
          now_s_ = phase_end_s_;
          on_ = true;
          phase_end_s_ = now_s_ + rng_.exp_double(1.0 / cfg_.burst_on_s);
          continue;
        }
        const double dt = rng_.exp_double(on_rate_);
        // The candidate past the phase boundary is discarded, which is
        // exact for exponential inter-arrivals (memorylessness).
        if (now_s_ + dt > phase_end_s_) {
          now_s_ = phase_end_s_;
          on_ = false;
          phase_end_s_ = now_s_ + rng_.exp_double(1.0 / cfg_.burst_off_s);
          continue;
        }
        now_s_ += dt;
        if (now_s_ < cfg_.duration_s) break;
      }
      if (now_s_ >= cfg_.duration_s) return;
      break;
    }
  }
  pending_ = Request{next_id_++, to_us(now_s_), 0};
  has_next_ = true;
}

std::vector<Request> generate_workload(const WorkloadConfig& cfg) {
  WorkloadStream stream(cfg);
  std::vector<Request> out;
  while (stream.has_next()) out.push_back(stream.next());
  return out;
}

void MixedWorkloadConfig::validate() const {
  VITBIT_CHECK_MSG(!classes.empty(), "mixed workload needs >= 1 class");
  VITBIT_CHECK_MSG(positive_finite(rate_rps),
                   "mixed workload rate must be positive finite");
  VITBIT_CHECK_MSG(positive_finite(duration_s),
                   "mixed workload duration must be positive finite");
  VITBIT_CHECK_MSG(num_models >= 1, "mixed workload needs >= 1 model");
  double share_sum = 0.0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto& cls = classes[c];
    VITBIT_CHECK_MSG(positive_finite(cls.rate_share),
                     "class " << c << " rate share must be positive finite");
    share_sum += cls.rate_share;
    VITBIT_CHECK_MSG(cls.kind != ArrivalKind::kBursty ||
                         (positive_finite(cls.burst_on_s) &&
                          positive_finite(cls.burst_off_s)),
                     "class " << c
                              << " bursty phase means must be positive finite");
    if (!cls.model_mix.empty()) {
      VITBIT_CHECK_MSG(
          cls.model_mix.size() == static_cast<std::size_t>(num_models),
          "class " << c << " model mix has " << cls.model_mix.size()
                   << " entries for " << num_models << " models");
      double sum = 0.0;
      for (const double v : cls.model_mix) {
        VITBIT_CHECK_MSG(std::isfinite(v) && v >= 0.0,
                         "class " << c
                                  << " model-mix entry is not a nonnegative "
                                     "finite number");
        sum += v;
      }
      VITBIT_CHECK_MSG(sum > 0.0, "class " << c << " model mix sums to zero");
      VITBIT_CHECK_MSG(std::isfinite(sum),
                       "class " << c << " model mix sum overflows a double");
    }
  }
  // The per-class rates MixedWorkloadStream derives: a rate-share sum or a
  // rate x share that overflows leaves no positive finite rate.
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const double rate = rate_rps * classes[c].rate_share / share_sum;
    VITBIT_CHECK_MSG(positive_finite(rate),
                     "class " << c << " rate share gives rate " << rate
                              << " (rate shares sum to " << share_sum << ")");
  }
}

MixedWorkloadStream::MixedWorkloadStream(const MixedWorkloadConfig& cfg) {
  cfg.validate();
  double share_sum = 0.0;
  for (const auto& cls : cfg.classes) share_sum += cls.rate_share;
  classes_.reserve(cfg.classes.size());
  for (std::size_t c = 0; c < cfg.classes.size(); ++c) {
    const auto& cls = cfg.classes[c];
    WorkloadConfig w;
    w.kind = cls.kind;
    w.rate_rps = cfg.rate_rps * cls.rate_share / share_sum;
    w.duration_s = cfg.duration_s;
    // Independent per-class streams (the shard_fault_seed idiom of
    // serve/cluster.h): arrivals and model draws mix distinct constants,
    // so the model assignment never perturbs the arrival sequence.
    w.seed = cfg.seed + 0xbf58476d1ce4e5b9ull * (c + 1);
    w.burst_on_s = cls.burst_on_s;
    w.burst_off_s = cls.burst_off_s;
    PerClass pc{WorkloadStream(w),
                Rng(cfg.seed + 0x94d049bb133111ebull * (c + 1)),
                {}};
    if (!cls.model_mix.empty()) {
      double sum = 0.0;
      for (const double v : cls.model_mix) sum += v;
      pc.cum_mix.reserve(cls.model_mix.size());
      double acc = 0.0;
      for (const double v : cls.model_mix) {
        acc += v / sum;
        pc.cum_mix.push_back(acc);
      }
      pc.cum_mix.back() = 1.0;  // guard the rounding tail
    }
    classes_.push_back(std::move(pc));
  }
}

bool MixedWorkloadStream::has_next() const {
  for (const auto& pc : classes_)
    if (pc.stream.has_next()) return true;
  return false;
}

std::size_t MixedWorkloadStream::pick() const {
  std::size_t best = classes_.size();
  std::uint64_t best_t = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (!classes_[c].stream.has_next()) continue;
    const auto t = classes_[c].stream.peek_arrival_us();
    if (best == classes_.size() || t < best_t) {
      best = c;
      best_t = t;
    }
  }
  VITBIT_CHECK_MSG(best < classes_.size(),
                   "next past the end of the mixed workload stream");
  return best;
}

std::uint64_t MixedWorkloadStream::peek_arrival_us() const {
  return classes_[pick()].stream.peek_arrival_us();
}

Request MixedWorkloadStream::next() {
  const std::size_t c = pick();
  auto& pc = classes_[c];
  Request r = pc.stream.next();
  r.id = next_id_++;
  r.cls = static_cast<int>(c);
  r.model = 0;
  if (!pc.cum_mix.empty()) {
    const double u = pc.model_rng.uniform();
    while (r.model + 1 < static_cast<int>(pc.cum_mix.size()) &&
           u >= pc.cum_mix[static_cast<std::size_t>(r.model)])
      ++r.model;
  }
  return r;
}

std::vector<Request> generate_mixed_workload(const MixedWorkloadConfig& cfg) {
  MixedWorkloadStream stream(cfg);
  std::vector<Request> out;
  while (stream.has_next()) out.push_back(stream.next());
  return out;
}

}  // namespace vitbit::serve
