#include "serve/faults.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace vitbit::serve {

namespace {

// Distinct, seed-derived stream identities. The constants are splitmix64
// increments so nearby seeds do not produce overlapping streams; Rng's
// constructor splitmixes the result again.
std::uint64_t replica_stream_seed(std::uint64_t seed, int replica) {
  return seed + 0x9e3779b97f4a7c15ull *
                    (static_cast<std::uint64_t>(replica) + 1);
}

std::uint64_t batch_stream_seed(std::uint64_t seed) {
  return seed ^ 0xd1b54a32d192ed03ull;
}

// Exponential phase length in integer virtual microseconds, >= 1 so the
// schedule strictly advances even when a draw rounds to zero.
std::uint64_t exp_phase_us(Rng& rng, double mean_s) {
  const double t = rng.exp_double(1.0 / mean_s);
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(t * 1e6)));
}

}  // namespace

void FaultConfig::validate() const {
  VITBIT_CHECK_MSG(std::isfinite(replica_mtbf_s) && replica_mtbf_s >= 0.0,
                   "replica_mtbf_s must be finite and >= 0");
  if (replica_mtbf_s > 0.0)
    VITBIT_CHECK_MSG(std::isfinite(replica_mttr_s) && replica_mttr_s > 0.0,
                     "replica_mttr_s must be positive finite when failures "
                     "are enabled");
  VITBIT_CHECK_MSG(batch_failure_prob >= 0.0 && batch_failure_prob <= 1.0,
                   "batch_failure_prob must be in [0, 1]");
  VITBIT_CHECK_MSG(latency_spike_prob >= 0.0 && latency_spike_prob <= 1.0,
                   "latency_spike_prob must be in [0, 1]");
  if (latency_spike_prob > 0.0)
    VITBIT_CHECK_MSG(
        std::isfinite(latency_spike_mult) && latency_spike_mult >= 1.0,
        "latency_spike_mult must be finite and >= 1");
  VITBIT_CHECK_MSG(max_retries >= 0, "max_retries must be >= 0");
  VITBIT_CHECK_MSG(retry_backoff_us >= 1, "retry_backoff_us must be >= 1");
  VITBIT_CHECK_MSG(degrade_below_live >= 0, "degrade_below_live must be >= 0");
}

FaultModel::FaultModel(const FaultConfig& cfg, int num_replicas)
    : cfg_(cfg), batch_rng_(batch_stream_seed(cfg.seed)) {
  cfg_.validate();
  VITBIT_CHECK_MSG(num_replicas >= 1, "fault model needs >= 1 replica");
  up_.assign(static_cast<std::size_t>(num_replicas), true);
  next_transition_us_.assign(static_cast<std::size_t>(num_replicas), kNever);
  replica_rng_.reserve(static_cast<std::size_t>(num_replicas));
  for (int g = 0; g < num_replicas; ++g) {
    replica_rng_.emplace_back(replica_stream_seed(cfg_.seed, g));
    if (cfg_.replica_mtbf_s > 0.0)
      next_transition_us_[static_cast<std::size_t>(g)] =
          exp_phase_us(replica_rng_.back(), cfg_.replica_mtbf_s);
  }
}

int FaultModel::live() const {
  int n = 0;
  for (const bool u : up_) n += u ? 1 : 0;
  return n;
}

void FaultModel::advance(int replica) {
  const auto g = static_cast<std::size_t>(replica);
  VITBIT_CHECK_MSG(next_transition_us_[g] != kNever,
                   "advance() on a replica with no scheduled transition");
  up_[g] = !up_[g];
  // Down phases last ~MTTR, up phases ~MTBF; both from the replica's own
  // stream so schedules never depend on other replicas or dispatch order.
  const double mean_s = up_[g] ? cfg_.replica_mtbf_s : cfg_.replica_mttr_s;
  next_transition_us_[g] += exp_phase_us(replica_rng_[g], mean_s);
}

FaultModel::BatchFate FaultModel::draw_batch_fate() {
  BatchFate fate;
  if (cfg_.batch_failure_prob > 0.0)
    fate.fail = batch_rng_.uniform() < cfg_.batch_failure_prob;
  if (cfg_.latency_spike_prob > 0.0)
    fate.spike = batch_rng_.uniform() < cfg_.latency_spike_prob;
  return fate;
}

std::uint64_t FaultModel::spiked_latency_us(std::uint64_t base_us) const {
  const double scaled =
      static_cast<double>(base_us) * cfg_.latency_spike_mult;
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(scaled)));
}

std::uint64_t FaultModel::retry_delay_us(int attempt) const {
  VITBIT_CHECK_MSG(attempt >= 1, "retry attempts are 1-based");
  // Cap the shift so a large budget cannot overflow; the deadline check
  // in the server sheds long-delayed retries well before this matters.
  const int shift = std::min(attempt - 1, 32);
  return std::max<std::uint64_t>(1, cfg_.retry_backoff_us << shift);
}

}  // namespace vitbit::serve
