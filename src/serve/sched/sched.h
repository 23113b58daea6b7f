// The serving shard: a replica pool behind one admission bound, driven by
// the fleet loop (serve/fleet_loop.h) through simulate_fleet_sched
// (serve/cluster.h). Every serving sweep runs on it — the single-model
// serve sweep is a one-shard fleet of one model, the classic fleet sweep
// an N-shard fleet of one model. Four scheduling modes:
//
//   fifo     whole-batch dispatch: one arrival-order queue, head-of-line
//            same-model prefix batches, whole-batch latency, priorities
//            ignored. The "greedy" flush of the serve and fleet sweeps.
//   timeout  fifo that waits for a full batch or for the head request's
//            batch_timeout_us deadline before it dispatches a partial one.
//   cb       continuous batching: a batch executes iteration by iteration
//            (a batch's latency splits into `iters` equal slices), and at
//            every iteration boundary finished requests leave while queued
//            requests of the same model join the running batch. Admission
//            across priority-class queues is smooth weighted round-robin.
//   cb-pre   cb plus deadline awareness: a queued request that would miss
//            its class SLO even if dispatched alone is urgent; urgent
//            requests are admitted ahead of the round-robin order, and
//            when the batch is full the scheduler preempts the most
//            recently joined resident of a strictly lower class, losing
//            that resident's partial work (it restarts from its original
//            arrival time, so its latency keeps the cost honest).
//
// Replicas keep an LRU cache of model weights; switching an (idle)
// replica to an uncached model charges the registry's cold-swap time,
// a cached switch the warm activation (a replica's first load is free —
// weights are staged before traffic).
//
// Faults (serve/faults.h) act on a replica's resident batch in every
// mode: a replica going down aborts it, every iteration start draws the
// batch's fate (transient failure at completion, latency spike), failed
// requests retry after deadline-aware backoff or are shed, and while live
// replicas sit below degrade_below_live new iterations are charged to a
// fallback registry. With every fault rate at zero no fault stream is
// drawn and the shard runs exactly as without the machinery.
//
// Determinism contract: integer virtual microseconds, fixed event order
// (fault transitions, then iteration completions, by replica index;
// admissions in arrival order; due retries in (ready time, request id)
// order; then dispatch by replica index), sweeps fan out over
// ThreadPool::parallel_map in point-index order — so a sweep serializes
// to byte-identical reports at every --threads.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/faults.h"
#include "serve/metrics.h"
#include "serve/models/registry.h"
#include "serve/workload.h"

namespace vitbit::serve {

// One priority class's scheduling contract. Lower class index = higher
// priority (class 0 preempts class 2, never the reverse); the weights
// shape steady-state sharing while the SLOs drive urgency.
struct ClassSpec {
  std::string name = "default";
  double weight = 1.0;        // smooth-WRR admission weight (> 0)
  std::uint64_t slo_us = 50000;  // per-class goodput target and deadline
};

struct SchedConfig {
  std::string mode = "fifo";  // fifo | timeout | cb | cb-pre
  int num_gpus = 1;
  int max_batch = 8;
  // Shared admission bound across all class queues (total queued
  // requests), so every mode faces the same drop pressure. Preempted
  // residents re-enter their class queue bypassing the bound — they were
  // already admitted once and must conserve.
  int queue_capacity = 64;
  // timeout mode: a partial batch dispatches once its head request has
  // waited this long.
  std::uint64_t batch_timeout_us = 2000;
  // Iteration slices per batch: a batch-b inference of model m runs as
  // `iters` boundaries max(1, latency_us(b) / iters) apart. 1 degenerates
  // to whole-batch scheduling; fifo and timeout ignore it entirely.
  int iters = 1;
  std::vector<ClassSpec> classes = {ClassSpec{}};
  // Goodput latency target of the aggregate (all-classes) sink. Also the
  // retry deadline: a failed request whose backed-off requeue would land
  // past arrival + slo_us is shed instead of retried.
  std::uint64_t slo_us = 50000;
  FaultConfig faults;  // all off by default

  void validate() const;
};

// Aggregate plus per-class and per-model breakdowns. Vector order follows
// SchedConfig::classes / the registry's model order. Request conservation
// (offered == completed + dropped + shed) holds for the total and per
// class; preempted residents are neither dropped nor shed — they requeue
// and finish.
struct SchedMetrics {
  ServeMetrics total;
  std::vector<ServeMetrics> per_class;
  std::vector<ServeMetrics> per_model;
  std::uint64_t preemptions = 0;  // residents evicted for urgent arrivals
  std::uint64_t model_swaps = 0;  // cold + warm model activations charged
  std::uint64_t cold_swaps = 0;   // the cold (full weight load) subset
  std::uint64_t swap_us = 0;      // total virtual time spent swapping
};

// One shard over a model registry. The caller drives it in the fixed
// per-timestep order of the determinism contract: begin_step,
// maybe_autoscale, admit fresh arrivals, admit_due_retries, dispatch,
// then advance to the minimum of next_internal_event_us / next_timer_us
// across shards. `registry` (and `fallback`) must outlive the sim and
// cover SchedConfig::max_batch for every model; `fallback` is required,
// with the same model count, when faults.degrade_below_live > 0.
//
// With an enabled AutoscaleConfig the replica pool sizes to max_replicas
// and an enabled-replica window [0, enabled) grows and shrinks on the
// decision grid — scale up on queue depth, running p99, per-class
// preemption rate, or per-class SLO-miss rate; scale down only retires a
// replica that is neither running nor holding residents. Replica fault
// schedules keep ticking for disabled replicas — a scaled-up replica can
// arrive already down.
class SchedSim {
 public:
  SchedSim(const ModelRegistry& registry, const SchedConfig& cfg,
           PercentileMode percentiles = PercentileMode::kExact,
           const AutoscaleConfig& autoscale = {},
           const ModelRegistry* fallback = nullptr);

  // Fault transitions due at `now` (lowest replica first; a replica going
  // down aborts its resident batch onto the retry path), degraded-mode
  // bookkeeping, then iteration completions due at `now`: a failed
  // iteration retries its residents; otherwise finished residents
  // complete against the total, class, and model sinks, and the replica
  // is left at a boundary for dispatch() to refill or idle.
  void begin_step(std::uint64_t now);
  // Admits one fresh arrival into its class queue (fifo and timeout: the
  // single arrival-order queue), with drop-on-full accounting against the
  // shared capacity.
  void admit(std::uint64_t now, const Request& r);
  // Requeues retries whose backoff elapsed, in (ready, id) order; a full
  // queue sheds them.
  void admit_due_retries(std::uint64_t now);
  // Fills live replicas, lowest index first: fifo and timeout dispatch
  // whole same-model prefix batches onto idle replicas once the flush
  // rule agrees; cb additionally joins queued requests into batches
  // standing at an iteration boundary; cb-pre admits urgent requests
  // first and preempts when full.
  void dispatch(std::uint64_t now);
  // Autoscale evaluation when `now` lands on the interval grid: catches
  // up tick by tick, applying at most one action per tick outside the
  // cooldown window. No-op when autoscaling is disabled.
  void maybe_autoscale(std::uint64_t now);

  // Next iteration completion, due retry, or timeout wake-up (kNever when
  // none).
  std::uint64_t next_internal_event_us() const;
  // Next fault transition or autoscale tick. Only consult while work
  // remains somewhere — the infinite schedules must not keep an
  // otherwise-drained loop alive.
  std::uint64_t next_timer_us() const;
  // No queued, retrying, or resident work anywhere.
  bool idle() const;
  // Queued plus resident (in-batch) requests — the live signal the
  // fleet router balances on.
  std::size_t load() const;
  // Timestamp of the last state change (admission, dispatch, completion,
  // fault transition, scale action) — the per-shard finalize span.
  std::uint64_t last_activity_us() const { return last_activity_us_; }

  // Whether any enabled replica could serve `model` without a cold load:
  // it is the loaded model or sits in an LRU weight cache. The fleet's
  // warm routing policy steers interactive classes by this.
  bool warm_for(int model) const;
  // Stages `model`'s weights on every replica (free, before traffic) —
  // the fleet's model-placement policy. After prestaging, activating a
  // different model charges a real cold swap.
  void prestage(int model);

  int enabled_replicas() const { return enabled_; }
  std::uint64_t scale_ups() const { return scale_ups_; }
  std::uint64_t scale_downs() const { return scale_downs_; }
  // Sink access for the fleet tier's cross-shard percentile merges
  // (shard-index order; the P² merge is not associative).
  const MetricsSink& total_sink() const { return total_; }
  const MetricsSink& class_sink(std::size_t c) const;
  const MetricsSink& model_sink(std::size_t m) const;

  // Closes the degraded-time and replica-time integrals at `end_us` and
  // finalizes the sinks. Call exactly once, after the driving loop
  // drains.
  SchedMetrics finalize(std::uint64_t end_us);

 private:
  enum class Mode { kFifo, kTimeout, kCb, kCbPre };
  struct Resident {
    Request req;
    int remaining = 0;          // iteration slices left
    std::uint64_t join_seq = 0;  // global join order (preemption victim
                                 // tie-break: latest joiner restarts)
  };
  struct Replica {
    std::vector<Resident> batch;
    int model = -1;  // currently loaded model; -1 = nothing loaded yet
    bool running = false;       // an iteration is in flight
    bool fail = false;          // the running iteration's predrawn fate
    std::uint64_t iter_start_us = 0;
    std::uint64_t iter_done_us = 0;
    // Swap time charged at activation, consumed by the next iteration.
    std::uint64_t pending_swap_us = 0;
    std::vector<int> cache;  // LRU over model ids, most recent at back
  };
  // Requeue scheduled after retry backoff; a min-heap keyed on
  // (ready time, request id) keeps the requeue order deterministic.
  struct RetryEntry {
    std::uint64_t ready_us = 0;
    Request req;
  };
  struct RetryLater {
    bool operator()(const RetryEntry& a, const RetryEntry& b) const {
      if (a.ready_us != b.ready_us) return a.ready_us > b.ready_us;
      return a.req.id > b.req.id;
    }
  };

  bool whole_batch() const {
    return mode_ == Mode::kFifo || mode_ == Mode::kTimeout;
  }
  // Applies one per-request event to the total, class, and model sinks.
  template <typename Fn>
  void each_sink(const Request& r, Fn&& fn) {
    fn(total_);
    fn(per_class_.at(static_cast<std::size_t>(r.cls)));
    fn(per_model_.at(static_cast<std::size_t>(r.model)));
  }
  std::size_t total_depth() const;
  void enqueue(const Request& r);
  // Routes a failed or aborted batch through the retry budget: each
  // resident either schedules its next attempt after exponential backoff
  // or is shed when the budget or its SLO deadline is exhausted.
  void fail_batch(Replica& rep, std::uint64_t t);
  int live_enabled() const;
  // Smooth-WRR pick among classes whose head request can join a model-m
  // batch (m < 0: any nonempty class); -1 when none is eligible.
  int pick_class(int model) const;
  // Charges a model activation on `rep` (warm or cold per its LRU cache);
  // the swap time lands in pending_swap_us for the next iteration.
  void activate_model(Replica& rep, int model);
  // Schedules the next iteration from the current batch size, drawing its
  // fault fate.
  void start_iteration(Replica& rep, std::uint64_t now);
  Request pop_class(int c);
  // cb-pre helpers: whether queued head `r` would miss its deadline even
  // dispatched alone, and the urgent-admission / preemption pass.
  bool urgent(std::uint64_t now, const Request& r) const;
  void admit_urgent(Replica& rep, std::uint64_t now);
  void fill_wrr(Replica& rep, std::uint64_t now);
  void dispatch_whole(std::uint64_t now);
  void dispatch_cb(std::uint64_t now);
  void touch(std::uint64_t now) { last_activity_us_ = now; }
  // Saturating t + cooldown (a near-max cooldown means "never again").
  std::uint64_t cooldown_expiry_us(std::uint64_t t) const;
  // Folds enabled * elapsed into the replica-time integral at an
  // enabled-count change (and finalize) — exact available-replica-time
  // for utilization under autoscaling.
  void accrue_replica_time(std::uint64_t now);

  const ModelRegistry& registry_;
  const ModelRegistry* fallback_ = nullptr;
  SchedConfig cfg_;
  AutoscaleConfig as_;
  Mode mode_ = Mode::kFifo;
  std::vector<Replica> replicas_;
  FaultModel faults_;
  // fifo and timeout: the single arrival-order queue; cb modes: one queue
  // per class, shared capacity.
  std::deque<Request> fifo_queue_;
  std::vector<std::deque<Request>> class_queues_;
  std::vector<RetryEntry> retries_;  // min-heap via push_heap/pop_heap
  std::vector<std::uint64_t> served_;  // WRR admission counts per class
  std::uint64_t join_seq_ = 0;
  std::uint64_t flush_wake_us_;  // timeout wake-up; kNever when none
  bool degraded_ = false;
  std::uint64_t degraded_since_ = 0;
  MetricsSink total_;
  SinkGroup per_class_;
  SinkGroup per_model_;
  std::uint64_t preemptions_ = 0;
  std::uint64_t model_swaps_ = 0;
  std::uint64_t cold_swaps_ = 0;
  std::uint64_t swap_us_ = 0;
  // Autoscaling state: the enabled-replica window is [0, enabled_).
  int enabled_ = 0;
  std::uint64_t next_autoscale_us_ = 0;
  std::uint64_t cooldown_until_us_ = 0;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  std::uint64_t replica_time_integral_us_ = 0;
  std::uint64_t last_enabled_change_us_ = 0;
  std::uint64_t last_activity_us_ = 0;
  // Per-class signal counters since the last autoscale tick (victim
  // class for preemptions; completions and SLO misses per class).
  std::vector<std::uint64_t> tick_preempted_;
  std::vector<std::uint64_t> tick_completed_;
  std::vector<std::uint64_t> tick_missed_;
};

// The smooth-WRR admission comparison: whether a candidate class with
// weight `weight_c` and served count `served_c` strictly beats the
// incumbent (weight_b, served_b), i.e. weight_c / (served_c + 1) >
// weight_b / (served_b + 1), decided by exact cross-multiplication.
// Doubles lose the cross products once one exceeds 2^53 (an extreme
// weight ratio, e.g. 1e9:1, times a long-run served count), silently
// starving the low-weight class at tie boundaries; here each weight is
// split into its 53-bit mantissa and exponent, the mantissa-times-count
// products compare in 128-bit integers, and the exponent gap shifts one
// side exactly — so the pick is correct for every positive finite
// weight. Agrees with the double comparison wherever doubles are exact.
// Exposed for sched_test's precision pins.
bool wrr_prefers(double weight_c, std::uint64_t served_c, double weight_b,
                 std::uint64_t served_b);

}  // namespace vitbit::serve
