// Event-driven serving simulator on top of the timing pipeline: virtual
// time advances between request arrivals, batch dispatches, and batch
// completions; each dispatched batch charges the simulated GPU latency of
// `nn::build_kernel_log(cfg, batch)` under core::time_inferences, memoized
// per batch size in a LatencyTable. This is where VitBit's kernel-level
// speedup turns into goodput and tail-latency wins under load.
//
// Determinism contract (the same one the timing pipeline upholds): all
// virtual time is integer microseconds, event ties resolve in a fixed
// order (replica fault transitions, batch completions, admissions, then
// dispatches — each in replica-index / arrival order), and the sweep fans
// out over ThreadPool::parallel_map, so a rate sweep serializes to
// byte-identical reports at every --threads value. Fault injection
// (serve/faults.h) rides the same loop: failures, retries with
// deadline-aware backoff, load shedding, and degraded-mode failover to a
// fallback strategy's latency table are all explicit seeded events, and
// with every fault rate at zero the loop reproduces the fault-free
// metrics bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "common/table.h"
#include "nn/kernel_log.h"
#include "nn/vit_config.h"
#include "report/run_report.h"
#include "serve/batcher.h"
#include "serve/faults.h"
#include "serve/metrics.h"
#include "serve/workload.h"
#include "vitbit/pipeline.h"

namespace vitbit {
class Cli;
class ThreadPool;
}

namespace vitbit::serve {

// Simulated GPU latency of one inference batch per batch size, in integer
// virtual microseconds. Index == batch size; [0] is unused.
struct LatencyTable {
  core::Strategy strategy = core::Strategy::kTC;
  std::vector<std::uint64_t> batch_latency_us;

  // Checked lookup; batch must be in [1, max_batch].
  std::uint64_t latency_us(std::size_t batch) const;
  int max_batch() const {
    return static_cast<int>(batch_latency_us.size()) - 1;
  }
};

// Yields the kernel log of one batch-`b` inference of some model — the
// hook that lets the latency-table builder below cover any workload with
// a per-batch log builder (ViT, CNN, mixer, int4 variants).
using KernelLogForBatch = std::function<nn::KernelLog(int batch)>;

// One model's share of a latency-table build: its per-batch log builder,
// the strategies to tabulate, and the config it serves under.
struct LatencyTableModel {
  KernelLogForBatch log_for_batch;
  std::vector<core::Strategy> strategies;
  core::StrategyConfig cfg;
};

// The generic memoized per-batch-size latency-table builder: per model,
// one table per strategy, each covering batch sizes [1, max_batch],
// converted from cycles to microseconds at the spec clock and validated
// to never round to zero. Every (model, strategy, batch) inference is
// timed in one core::time_inferences call, so each distinct SM slice
// across all of them is simulated once, fanned out over `pool`. Returns
// tables[model][strategy]. Every consumer — the serve sweeps (via the ViT
// wrapper below), the model registry (serve/models), and the ext_* batch
// benches — goes through this one helper.
std::vector<std::vector<LatencyTable>> build_model_latency_tables(
    const std::vector<LatencyTableModel>& models, const arch::OrinSpec& spec,
    const arch::Calibration& calib, int max_batch, ThreadPool* pool = nullptr);

// ViT wrapper over build_model_latency_tables, kept as the serve sweeps'
// entry point (their model knob is a VitConfig).
std::vector<LatencyTable> build_latency_tables(
    const nn::VitConfig& model, const std::vector<core::Strategy>& strategies,
    const core::StrategyConfig& cfg, const arch::OrinSpec& spec,
    const arch::Calibration& calib, int max_batch, ThreadPool* pool = nullptr);

// Single-strategy convenience wrapper over build_latency_tables.
LatencyTable build_latency_table(const nn::VitConfig& model,
                                 core::Strategy strategy,
                                 const core::StrategyConfig& cfg,
                                 const arch::OrinSpec& spec,
                                 const arch::Calibration& calib, int max_batch,
                                 ThreadPool* pool = nullptr);

struct ServerConfig {
  BatcherConfig batcher;
  std::string policy = "timeout";  // see serve/batcher.h
  // Identical GPU replicas the batcher multiplexes over.
  int num_gpus = 1;
  // Goodput latency target: a completed request counts toward goodput only
  // when arrival-to-completion stays within this bound. Also the retry
  // deadline: a failed request whose backed-off requeue would land past
  // arrival + slo_us is shed instead of retried.
  std::uint64_t slo_us = 50000;
  // Fault-injection knobs (all off by default; see serve/faults.h).
  FaultConfig faults;

  void validate() const;
};

// Reactive per-shard autoscaling (fleet tier, serve/cluster.h): every
// interval_us of virtual time a shard compares its queue depth (and
// optionally its running p99 estimate) against the thresholds and grows
// or shrinks its enabled-replica window within [min, max]. Hysteresis
// comes from the up/down threshold gap plus a cooldown after every
// action; scale-downs only retire an idle replica, so in-flight batches
// are never aborted by the autoscaler (only by faults). Replica fault
// schedules (serve/faults.h) keep ticking for disabled replicas — a
// scaled-up replica can arrive already down, exactly like a real node
// joining from a bad pool.
struct AutoscaleConfig {
  int min_replicas = 1;
  // max_replicas == min_replicas disables autoscaling (the shard runs a
  // fixed ServerConfig::num_gpus fleet).
  int max_replicas = 1;
  std::uint64_t interval_us = 50000;  // evaluation cadence, virtual us
  // Scale up when queue depth exceeds up_queue_depth, or (when
  // up_p99_us > 0) the sink's running p99 exceeds up_p99_us. Scale down
  // when depth is at or below down_queue_depth.
  std::size_t up_queue_depth = 16;
  std::size_t down_queue_depth = 2;
  std::uint64_t up_p99_us = 0;
  std::uint64_t cooldown_us = 200000;  // min virtual time between actions
  // Preemption-aware scale-up signals, evaluated per priority class over
  // the last decision interval by the scheduler tier (serve/sched); the
  // classic single-class shard (ShardSim) has no preemptions or class
  // deadlines and ignores both. 0 disables a signal.
  //   up_preempt_per_s   scale up when any class's preemption rate
  //                      (victims per virtual second) exceeds this
  //   up_slo_miss_rate   scale up when any class's completed-request
  //                      SLO-miss fraction (0..1) exceeds this
  double up_preempt_per_s = 0.0;
  double up_slo_miss_rate = 0.0;

  bool enabled() const { return max_replicas > min_replicas; }
  void validate() const;
};

// One shard's event-driven server, refactored out of simulate_server so
// the fleet tier can interleave many shards in one global virtual-time
// loop (the join-shortest-queue and power-of-two-choices routers need
// live queue depths at every arrival, so shards cannot be simulated
// independently). The caller drives it in the fixed per-timestep order
// the determinism contract pins: begin_step (fault transitions, then
// completions), maybe_autoscale, admit fresh arrivals, admit_due_retries,
// dispatch, then advance to the minimum of next_internal_event_us /
// next_timer_us across shards. `latency` and `fallback` must outlive the
// sim.
class ShardSim {
 public:
  ShardSim(const LatencyTable& latency, const ServerConfig& cfg,
           const LatencyTable* fallback,
           PercentileMode mode = PercentileMode::kExact,
           const AutoscaleConfig& autoscale = {});

  // Fault transitions due at `now` (lowest replica first; a replica going
  // down aborts its in-flight batch onto the retry path), degraded-mode
  // bookkeeping, then batch completions due at `now`.
  void begin_step(std::uint64_t now);
  // Autoscale evaluation when `now` lands on the interval grid.
  void maybe_autoscale(std::uint64_t now);
  // Admits one fresh arrival (drop-on-full accounting included).
  void admit(std::uint64_t now, const Request& r);
  // Requeues retries whose backoff elapsed, in (ready, id) order.
  void admit_due_retries(std::uint64_t now);
  // Dispatches onto idle live replicas while the flush policy agrees.
  void dispatch(std::uint64_t now);

  // Next completion, due retry, or policy wake-up (kNever when none).
  std::uint64_t next_internal_event_us() const;
  // Next fault transition or autoscale tick. Only consult while work
  // remains somewhere in the system — the infinite schedules must not
  // keep an otherwise-drained loop alive.
  std::uint64_t next_timer_us() const;

  // No queued, retrying, or in-flight work on this shard.
  bool idle() const;
  // Router load signal: queued plus in-flight requests.
  std::size_t load() const { return queue_.depth() + in_flight_requests_; }
  // Virtual time of the last state change (admission, dispatch,
  // completion, fault transition, scale action) — the shard's span.
  std::uint64_t last_activity_us() const { return last_activity_us_; }
  int enabled_replicas() const { return enabled_; }
  std::uint64_t scale_ups() const { return scale_ups_; }
  std::uint64_t scale_downs() const { return scale_downs_; }
  MetricsSink& sink() { return sink_; }
  const MetricsSink& sink() const { return sink_; }

  // Closes the degraded-time and replica-time integrals at `end_us` and
  // finalizes the sink. Call exactly once, after the driving loop drains.
  ServeMetrics finalize(std::uint64_t end_us);

 private:
  // One batch executing on a replica; `fail` is its predrawn fate.
  struct InFlight {
    bool active = false;
    bool fail = false;
    std::uint64_t started_us = 0;
    std::uint64_t done_us = 0;
    std::vector<Request> batch;
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

  void fail_batch(std::uint64_t t, std::vector<Request>&& batch);
  void accrue_replica_time(std::uint64_t now);
  // Saturating t + cooldown (a near-max cooldown means "never again").
  std::uint64_t cooldown_expiry_us(std::uint64_t t) const;
  int live_enabled() const;
  void touch(std::uint64_t now) { last_activity_us_ = now; }

  const LatencyTable& latency_;
  const LatencyTable* fallback_ = nullptr;
  ServerConfig cfg_;
  AutoscaleConfig as_;
  std::unique_ptr<BatchPolicy> policy_;
  AdmissionQueue queue_;
  MetricsSink sink_;
  FaultModel faults_;
  std::vector<InFlight> running_;
  std::vector<RetryEntry> retries_;  // min-heap via push_heap/pop_heap
  bool degraded_ = false;
  std::uint64_t degraded_since_ = 0;
  std::uint64_t policy_wake_us_ = 0;  // set by dispatch(); kNever when none
  std::size_t in_flight_requests_ = 0;
  std::uint64_t last_activity_us_ = 0;
  // Autoscaling state: replicas [0, enabled_) are dispatchable; the rest
  // of the capacity window [enabled_, capacity) is parked.
  int enabled_ = 1;
  std::uint64_t next_autoscale_us_ = 0;
  std::uint64_t cooldown_until_us_ = 0;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  std::uint64_t replica_time_integral_us_ = 0;
  std::uint64_t last_enabled_change_us_ = 0;
};

// Runs the discrete-event loop over one request stream. The latency table
// must cover batcher.max_batch_size. `fallback` is the degraded-mode
// latency table (usually a cheaper strategy); it is required — and must
// cover the same batch range — when faults.degrade_below_live > 0, and
// ignored otherwise.
ServeMetrics simulate_server(const std::vector<Request>& workload,
                             const LatencyTable& latency,
                             const ServerConfig& cfg,
                             const LatencyTable* fallback = nullptr);

// A (strategy x arrival-rate) sweep over one model and server config.
struct SweepConfig {
  nn::VitConfig model;
  core::StrategyConfig strategy_cfg;
  std::vector<core::Strategy> strategies = {core::Strategy::kTC,
                                            core::Strategy::kVitBit};
  std::vector<double> rates_rps = {100, 200, 300, 400, 500};
  // rate_rps is overridden per sweep point; kind/duration/seed are shared
  // so both strategies face byte-identical request streams.
  WorkloadConfig workload;
  ServerConfig server;
  // Degraded-mode strategy when server.faults.degrade_below_live > 0: its
  // latency table is memoized alongside the swept strategies (no extra
  // simulations when it is already one of them, the common TC-next-to-
  // VitBit case) and swapped in while live replicas are below threshold.
  core::Strategy fallback_strategy = core::Strategy::kTC;
};

struct SweepPoint {
  core::Strategy strategy = core::Strategy::kTC;
  double rate_rps = 0.0;
  ServeMetrics metrics;
};

// Phase 1 memoizes the latency tables (every (strategy, batch-size)
// inference in one time_inferences call); phase 2 runs the event loop per
// (strategy, rate) point. Both phases fan out over `pool` and assemble in
// index order, so results are bit-identical for every pool size.
std::vector<SweepPoint> run_rate_sweep(const SweepConfig& cfg,
                                       const arch::OrinSpec& spec,
                                       const arch::Calibration& calib,
                                       ThreadPool* pool = nullptr);

// Console rendering: one row per rate, TC and VitBit goodput / p99 / drop
// columns side by side (column pairs follow cfg.strategies order).
Table sweep_table(const SweepConfig& cfg,
                  const std::vector<SweepPoint>& points);

// "100,200,400" -> {100, 200, 400}; every entry must be a finite number
// (throws CheckError otherwise, including on "inf" and entries that
// overflow double), strictly positive when `require_positive`, and
// nonnegative otherwise. `what` names the entry kind in errors. The one
// validated numeric-list parser behind every comma-list flag of
// serve_sim, fleet_sim, and sched_sim.
std::vector<double> parse_number_list(const std::string& spec,
                                      const char* what, bool require_positive);

// parse_number_list for the --rates flag of serve_sim, fleet_sim, and
// `vitbit_cli serve` / `fleet`: positive finite rates.
std::vector<double> parse_rate_list(const std::string& spec);

// "vit-b,cnn-edge" -> names; entries must be nonempty and unique (a
// duplicated model name in --models silently double-counting a zoo
// member is rejected with a clear error instead).
std::vector<std::string> parse_name_list(const std::string& spec,
                                         const char* what);

// Priority-class weights: positive finite numbers ("0" and "-1" are
// rejected — a zero-weight class could never be admitted).
std::vector<double> parse_weight_list(const std::string& spec);

// Mix fractions (traffic shares, per-model mixes): finite nonnegative
// numbers summing to > 0; callers normalize. NaN/inf propagated into a
// cumulative mix draw would silently skew every class, so finiteness is
// checked per entry with a clear error.
std::vector<double> parse_fraction_list(const std::string& spec,
                                        const char* what);

// Shared flag set of serve_sim and `vitbit_cli serve`: model/workload/
// server knobs (--layers, --rates/--rate, --arrival, --duration-s,
// --seed, --policy, --max-batch, --batch-timeout-us, --queue-capacity,
// --num-gpus, --slo-us) plus the fault-injection knobs (--fault-seed,
// --mtbf-s, --mttr-s, --batch-fail-prob, --spike-prob, --spike-mult,
// --max-retries, --retry-backoff-us, --degrade-below, --fallback).
// Validates the assembled config before returning.
SweepConfig sweep_config_from_cli(const Cli& cli);

// Schema-versioned run report carrying one ServePointReport per sweep
// point plus the sweep's full knob set in meta (the baseline gate requires
// meta to match exactly). host_wall_seconds is left 0 for the caller.
report::RunReport make_serve_report(const SweepConfig& cfg,
                                    const std::vector<SweepPoint>& points,
                                    const std::string& tool, int threads);

}  // namespace vitbit::serve
