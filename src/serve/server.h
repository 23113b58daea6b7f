// Shared ground of the serving simulator: per-batch latency tables timed
// from the simulated kernels, the autoscaler's knobs, and the validated
// parsers behind the serving CLIs. Each dispatched batch charges the
// simulated GPU latency of its model's kernel log under
// core::time_inferences, memoized per batch size in a LatencyTable — where
// VitBit's kernel-level speedup turns into goodput and tail-latency wins
// under load. The shard is serve/sched, the fleet driver and the sweeps
// serve/cluster.h.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "nn/kernel_log.h"
#include "nn/vit_config.h"
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

// Reactive per-shard autoscaling (serve/sched, serve/cluster.h): every
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
  // fixed SchedConfig::num_gpus pool).
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
  // the last decision interval. 0 disables a signal.
  //   up_preempt_per_s   scale up when any class's preemption rate
  //                      (victims per virtual second) exceeds this
  //   up_slo_miss_rate   scale up when any class's completed-request
  //                      SLO-miss fraction (0..1) exceeds this
  double up_preempt_per_s = 0.0;
  double up_slo_miss_rate = 0.0;

  bool enabled() const { return max_replicas > min_replicas; }
  void validate() const;
};

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
// numbers whose sum is finite and > 0; callers normalize. NaN/inf
// propagated into a cumulative mix draw would silently skew every class,
// so finiteness is checked per entry and for the sum with a clear error.
std::vector<double> parse_fraction_list(const std::string& spec,
                                        const char* what);

// Reads integer flag --name (default `def`) and range-checks the int64
// value against [lo, the largest T] before it narrows, so an out-of-range
// value throws CheckError instead of wrapping. Every integer knob of the
// serving CLIs goes through it; seeds do not, since any 64-bit pattern is
// a valid seed. Defined for int and std::uint64_t.
template <typename T>
T get_flag(const Cli& cli, const std::string& name, T def, T lo);

// Strategy by its core::strategy_name; throws CheckError naming `what`
// ("strategy", "fallback strategy") on an unknown name.
core::Strategy parse_strategy(const std::string& name, const char* what);

}  // namespace vitbit::serve
