// Reproducible request streams for the serving simulator. A workload is a
// sorted vector of arrival timestamps in integer virtual microseconds,
// generated from common/rng.h alone (no <random>), so the same
// (kind, rate, duration, seed) tuple produces the same bytes on every
// host and at every --threads value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vitbit::serve {

// The three arrival processes:
//   kPoisson  memoryless inter-arrivals at rate_rps (the classic open-loop
//             serving assumption)
//   kUniform  jittered-uniform inter-arrivals in [0.5, 1.5) / rate_rps —
//             same mean rate, bounded burstiness
//   kBursty   on/off-modulated Poisson: exponential on/off phases with
//             means burst_on_s / burst_off_s; the on-phase rate is scaled
//             so the long-run average stays rate_rps
enum class ArrivalKind { kPoisson, kUniform, kBursty };

const char* arrival_kind_name(ArrivalKind kind);
// Accepts "poisson" | "uniform" | "bursty"; throws CheckError otherwise.
ArrivalKind arrival_kind_from_name(const std::string& name);

struct WorkloadConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_rps = 200.0;  // long-run mean arrival rate, requests/s
  double duration_s = 1.0;  // stream length in virtual seconds
  std::uint64_t seed = 1;
  // Bursty-process phase means (ignored by the other kinds).
  double burst_on_s = 0.02;
  double burst_off_s = 0.08;

  // Rate, duration, and (bursty) phase means must be positive finite.
  void validate() const;
};

struct Request {
  std::uint64_t id = 0;
  std::uint64_t arrival_us = 0;
  // Completed retry attempts so far; 0 for fresh arrivals, incremented
  // each time the retry path (serve/faults.h) requeues the request.
  int attempt = 0;
  // Priority class and zoo model of the request (serve/sched). Single-
  // class single-model paths leave both 0, so pre-scheduler workloads are
  // unchanged byte for byte.
  int cls = 0;
  int model = 0;
};

// Arrival times are nondecreasing; ids are sequential from 0.
std::vector<Request> generate_workload(const WorkloadConfig& cfg);

// Streaming form of generate_workload: yields the identical request
// sequence one arrival at a time, holding O(1) state instead of the whole
// vector. The fleet tier (serve/cluster.h) consumes arrivals through this
// so a 10^7-request sweep never materializes a multi-hundred-MB workload
// — generate_workload() is itself implemented by draining a stream, so
// the two can never diverge.
class WorkloadStream {
 public:
  explicit WorkloadStream(const WorkloadConfig& cfg);

  // True while next() has another request to yield.
  bool has_next() const { return has_next_; }
  // Arrival time of the pending request; has_next() must be true.
  std::uint64_t peek_arrival_us() const;
  // Yields the pending request and advances; has_next() must be true.
  Request next();

 private:
  void advance();

  WorkloadConfig cfg_;
  Rng rng_;
  double on_rate_ = 0.0;  // bursty on-phase rate (kBursty only)
  double now_s_ = 0.0;
  bool on_ = true;            // bursty phase flag
  double phase_end_s_ = 0.0;  // bursty phase boundary
  std::uint64_t next_id_ = 0;
  bool has_next_ = false;
  Request pending_;
};

// One priority class's traffic in a mixed multi-tenant stream: its own
// arrival process (a bursty tenant next to smooth Poisson neighbors), its
// share of the total offered rate, and its per-model mix over the zoo.
struct ClassTraffic {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_share = 1.0;  // share of MixedWorkloadConfig::rate_rps (> 0)
  double burst_on_s = 0.02;   // bursty phase means (kBursty only)
  double burst_off_s = 0.08;
  // Per-model weights over [0, num_models); normalized at use. Empty
  // means "all traffic on model 0".
  std::vector<double> model_mix;
};

struct MixedWorkloadConfig {
  std::vector<ClassTraffic> classes = {ClassTraffic{}};
  double rate_rps = 200.0;  // total offered rate summed over classes
  double duration_s = 1.0;
  std::uint64_t seed = 1;
  int num_models = 1;

  void validate() const;
};

// Merge of per-class WorkloadStreams in (arrival time, class index)
// order, with per-request model assignment drawn from an independent
// per-class stream. Each class's arrivals and model draws are pure
// functions of (seed, class index) — adding a class or a model never
// perturbs another class's sequence — and ids are sequential in merged
// arrival order, so the stream is byte-identical at every --threads
// value. O(num_classes) state, like WorkloadStream.
class MixedWorkloadStream {
 public:
  explicit MixedWorkloadStream(const MixedWorkloadConfig& cfg);

  bool has_next() const;
  // Arrival time of the earliest pending request; has_next() required.
  std::uint64_t peek_arrival_us() const;
  // Yields the earliest pending request (ties: lowest class index) with
  // cls/model filled in and a merged sequential id.
  Request next();

 private:
  struct PerClass {
    WorkloadStream stream;
    Rng model_rng;
    std::vector<double> cum_mix;  // cumulative normalized model mix
  };

  std::size_t pick() const;  // earliest pending class; has_next() required

  std::vector<PerClass> classes_;
  std::uint64_t next_id_ = 0;
};

// Drains a MixedWorkloadStream into a vector (small sweeps and tests).
std::vector<Request> generate_mixed_workload(const MixedWorkloadConfig& cfg);

}  // namespace vitbit::serve
