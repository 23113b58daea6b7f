// Metrics sink for the serving simulator: raw events from the event loop
// (admissions, drops, batch dispatches, completions, queue-depth changes)
// accumulate here and finalize into throughput, goodput, utilization,
// drop rate, time-weighted queue depth, and latency percentiles.
// Everything derives from integer virtual-microsecond timestamps, so the
// numbers are bit-identical across hosts and threads.
//
// Two percentile modes:
//   kExact   store every latency and sort once at finalize — exact
//            nearest-rank percentiles, O(completed) memory. The serve
//            sweep (serve/cluster.h) and its committed baselines use
//            this.
//   kSketch  stream latencies through a P² sketch (serve/sketch.h) —
//            estimated percentiles, O(1) memory independent of the
//            request count. The fleet and zoo sweeps default to it so
//            they reach 10^7+ requests; serve_sketch_test bounds the
//            estimation error against kExact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/sketch.h"

namespace vitbit::serve {

// Nearest-rank percentile: the ceil(p/100 * N)-th smallest sample
// (1-indexed); p = 0 selects the minimum. Empty samples yield 0 — the
// caller-visible convention for "no data", pinned by serve_metrics_test.
std::uint64_t percentile_nearest_rank(std::vector<std::uint64_t> samples,
                                      double p);

enum class PercentileMode { kExact, kSketch };

struct ServeMetrics {
  std::uint64_t offered = 0;    // arrivals presented to the admission queue
  std::uint64_t completed = 0;  // requests that finished a batch
  std::uint64_t dropped = 0;    // rejected at a full queue
  std::uint64_t batches = 0;
  // Fault-injection accounting (serve/faults.h); all zero when no fault
  // process is enabled. offered == completed + dropped + shed at drain.
  std::uint64_t batch_failures = 0;  // batches failed or aborted mid-flight
  std::uint64_t retries = 0;         // retry attempts scheduled
  std::uint64_t requeued = 0;        // retries that re-entered the queue
  std::uint64_t shed = 0;    // requests abandoned: deadline, budget, or a
                             // full queue at requeue time
  std::uint64_t failovers = 0;  // entries into degraded (fallback) mode
  double degraded_s = 0.0;      // virtual time spent in degraded mode
  double mean_batch_size = 0.0;
  double duration_s = 0.0;       // virtual makespan: t = 0 to the last event
  double throughput_rps = 0.0;   // completed / duration
  double goodput_rps = 0.0;      // completed within the SLO / duration
  double drop_rate = 0.0;        // dropped / offered
  double utilization = 0.0;      // busy replica-time / available replica-time
  double mean_queue_depth = 0.0;  // time-weighted over the makespan
  std::uint64_t max_queue_depth = 0;
  // Latency percentiles of completed requests (arrival to batch
  // completion), virtual microseconds: exact nearest-rank in kExact mode,
  // P²-estimated (exact max) in kSketch mode.
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
  // Raw accumulators behind the derived rates above, kept so the fleet
  // tier (serve/cluster.h) can aggregate shard metrics weighted by each
  // shard's virtual-time span instead of naively averaging the per-shard
  // ratios. Never serialized into reports.
  std::uint64_t within_slo = 0;        // completions within the SLO
  std::uint64_t busy_us = 0;           // summed replica busy time
  std::uint64_t replica_time_us = 0;   // available replica-time integral
  std::uint64_t depth_integral_us = 0;  // queue depth integral to end_us
  std::uint64_t batched_requests = 0;
  std::uint64_t end_us = 0;  // the makespan finalize() was given
};

class MetricsSink {
 public:
  // `slo_us` is the goodput latency target. kSketch needs it up front
  // (within-SLO counts accumulate per completion instead of in a finalize
  // pass over stored samples) — 0 there means goodput is not tracked and
  // finalizes to 0. kExact ignores it until finalize, where the value
  // passed there must match when both are provided.
  explicit MetricsSink(PercentileMode mode = PercentileMode::kExact,
                       std::uint64_t slo_us = 0);

  void on_offered() { ++offered_; }
  void on_drop() { ++dropped_; }
  // Queue depth changed at `now_us` (admission or batch formation).
  void on_queue_depth(std::uint64_t now_us, std::size_t depth);
  void on_batch(std::size_t size, std::uint64_t busy_us);
  void on_completion(std::uint64_t arrival_us, std::uint64_t done_us);
  // Fault-path events (serve/faults.h).
  void on_batch_failure() { ++batch_failures_; }
  void on_retry() { ++retries_; }
  void on_requeue() { ++requeued_; }
  void on_shed() { ++shed_; }
  void on_failover() { ++failovers_; }
  void add_degraded_us(std::uint64_t us) { degraded_us_ += us; }
  // Available replica-time (replica count integrated over virtual time).
  // The server loop reports it at finalize; autoscaling shards accumulate
  // it piecewise as the enabled-replica count changes.
  void add_replica_time_us(std::uint64_t us) { replica_time_us_ += us; }

  // `end_us` is the simulation makespan; `slo_us` the goodput latency
  // target. Zero-duration runs finalize to all-zero rates. When
  // replica-time was never reported via add_replica_time_us, it defaults
  // to num_replicas * end_us (the fixed-fleet case).
  ServeMetrics finalize(int num_replicas, std::uint64_t end_us,
                        std::uint64_t slo_us) const;

  PercentileMode mode() const { return mode_; }
  // Running p99 estimate over completions so far — the autoscaler's
  // optional latency trigger. P² estimate in kSketch mode; exact
  // nearest-rank (a sort per call) in kExact mode.
  std::uint64_t running_p99_us() const;
  // Number of raw latency samples held — completed-request count in
  // kExact mode, always 0 in kSketch mode (the constant-memory claim the
  // fleet tests assert).
  std::size_t retained_latency_samples() const { return latencies_us_.size(); }
  // The streaming sketch (kSketch mode only) — the fleet tier merges
  // per-shard sketches in shard-index order.
  const LatencySketch& sketch() const;
  // The raw samples (kExact mode only) — the fleet tier concatenates them
  // in shard-index order for exact fleet percentiles.
  const std::vector<std::uint64_t>& latencies() const;

 private:
  PercentileMode mode_ = PercentileMode::kExact;
  std::uint64_t slo_us_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t batch_failures_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t requeued_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t degraded_us_ = 0;
  std::uint64_t replica_time_us_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_requests_ = 0;
  std::uint64_t busy_us_ = 0;
  // kExact: every completed-request latency. kSketch: unused (empty).
  std::vector<std::uint64_t> latencies_us_;
  // kSketch: streaming percentile state + incremental within-SLO count.
  LatencySketch sketch_;
  std::uint64_t completed_ = 0;
  std::uint64_t within_slo_ = 0;
  // Time-weighted queue-depth integral (depth * microseconds).
  std::uint64_t depth_integral_ = 0;
  std::uint64_t last_depth_change_us_ = 0;
  std::size_t last_depth_ = 0;
  std::uint64_t max_depth_ = 0;
};

// A fixed-size family of MetricsSinks with one SLO per member — the
// per-priority-class and per-model breakdowns the scheduler tier
// (serve/sched) keeps next to its total sink. Groups share the total
// sink's percentile mode, so a 10^6-request mixed-traffic sweep holds
// one P² sketch per class and per model instead of per-request samples.
// An SLO of 0 disables goodput tracking for that member (per-model
// groups: requests of different classes share a model, so no single
// latency target applies).
class SinkGroup {
 public:
  SinkGroup(std::vector<std::uint64_t> slos_us, PercentileMode mode);

  std::size_t size() const { return sinks_.size(); }
  MetricsSink& at(std::size_t i) { return sinks_[i]; }
  const MetricsSink& at(std::size_t i) const { return sinks_[i]; }

  // Finalizes every member against its own SLO. Per-member replica
  // counts are not meaningful (members share the replicas), so
  // utilization fields of the results are not: callers report only the
  // total sink's utilization.
  std::vector<ServeMetrics> finalize(int num_replicas,
                                     std::uint64_t end_us) const;

 private:
  std::vector<std::uint64_t> slos_us_;
  std::vector<MetricsSink> sinks_;
};

}  // namespace vitbit::serve
