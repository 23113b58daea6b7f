// The serving fleet: SchedSim shards (serve/sched) interleaved in one
// global virtual-time loop (serve/fleet_loop.h), fed by a Router
// (serve/router.h) that picks a shard per arrival, with optional reactive
// autoscaling per shard. simulate_fleet_sched is the one driver, and
// every serving sweep is a config of it:
//
//   serve        one shard, one ViT model, a (strategy x rate) grid
//   fleet        N shards, one ViT model, a (route x rate) grid
//   sched        one shard over the zoo, a (mode x rate) grid
//   fleet-sched  N shards over the zoo, a (mode x route x rate) grid
//
// Determinism contract: the fleet loop is single-threaded per sweep point
// (live-load routing couples the shards, so they cannot be simulated
// independently), shards step in index order at every timestamp, router
// decisions are pure functions of (seed, policy, request id), shard s
// draws its fault streams from its own seed, and per-shard percentile
// sketches merge in shard-index order. Parallelism only fans out over
// sweep points through ThreadPool::parallel_map, so reports are
// byte-identical at every --threads value.
//
// Memory contract: arrivals stream through WorkloadStream /
// MixedWorkloadStream and latencies through P² sketches (serve/sketch.h),
// so peak sink memory is independent of the request count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.h"
#include "nn/vit_config.h"
#include "report/run_report.h"
#include "serve/router.h"
#include "serve/sched/sched.h"

namespace vitbit::serve {

// Aggregates per-shard metrics into one fleet-level ServeMetrics. Counts
// add. Ratios are weighted by each shard's virtual-time span, never
// averaged naively: utilization = sum busy / sum replica-time (a shard
// that served twice as long counts twice as much) and mean queue depth =
// sum depth-integral / sum shard spans. Rates divide by the fleet
// makespan `end_us`. Latency percentiles are NOT filled in here — the
// caller owns those (they need the shards' sketches or raw samples).
// Exposed for fleet_test's two-shard unequal-duration case.
ServeMetrics aggregate_shard_metrics(const std::vector<ServeMetrics>& shards,
                                     std::uint64_t end_us);

// How the model zoo is staged across shards before traffic:
//   kNone    no prestaging — every shard starts cold, first load free
//   kSpread  shard s prestages model (s mod num_models) on all its
//            replicas — every model warm somewhere (when shards >=
//            models), which the warm routing policy exploits to keep
//            interactive traffic off cold weight swaps
enum class PlacementPolicy { kNone, kSpread };

const char* placement_policy_name(PlacementPolicy policy);
// Accepts "none" | "spread"; throws CheckError otherwise.
PlacementPolicy placement_policy_from_name(const std::string& name);

struct FleetSchedConfig {
  int num_shards = 4;
  RoutePolicy route = RoutePolicy::kJsq;
  // Seed of the router's per-request random streams (random / po2c).
  std::uint64_t route_seed = 1;
  // Per-shard scheduler knobs; num_gpus is the per-shard replica count.
  // Every shard shares one immutable ModelRegistry (latency tables and
  // swap costs); all mutable model state — the LRU weight caches — lives
  // inside each shard's replicas. Shard s draws its fault streams from
  // shard.faults.seed + 0xbf58476d1ce4e5b9 * s, so shards fail
  // independently and shard 0 is the single server.
  SchedConfig shard;
  AutoscaleConfig autoscale;
  PlacementPolicy placement = PlacementPolicy::kNone;
  // Under kWarm routing, the lowest-priority `cold_route_classes`
  // classes prefer cold shards (batch traffic stays off the warm set);
  // all higher classes prefer warm shards. Clamped so at least one class
  // routes warm when there are >= 2 classes; with a single class all
  // traffic routes warm.
  int cold_route_classes = 1;
  PercentileMode percentiles = PercentileMode::kSketch;

  void validate() const;
};

// Fleet-level aggregate in the span-weighted sense of
// aggregate_shard_metrics, applied per scope: the total and every
// per-class / per-model breakdown aggregate across shards, with latency
// percentiles merged in shard-index order (P² sketches in kSketch mode,
// exact nearest-rank over concatenated samples in kExact).
struct FleetSchedMetrics {
  SchedMetrics total;
  std::vector<SchedMetrics> per_shard;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  // Spread of per-shard utilization over the shards that served — the
  // balance quality signal of the policy comparison tables.
  double shard_util_min = 0.0;
  double shard_util_max = 0.0;
};

// Runs the fleet over one request stream until drained, checking request
// conservation (total and per class) at drain. `fallback` is the
// degraded-mode registry, required when shard.faults.degrade_below_live
// > 0. The three sources drive the identical loop: the mixed multi-class
// stream, a single-class WorkloadStream, and a materialized request
// vector (small hand-built workloads).
FleetSchedMetrics simulate_fleet_sched(const MixedWorkloadConfig& workload,
                                       const ModelRegistry& registry,
                                       const FleetSchedConfig& cfg,
                                       const ModelRegistry* fallback = nullptr);
FleetSchedMetrics simulate_fleet_sched(const WorkloadConfig& workload,
                                       const ModelRegistry& registry,
                                       const FleetSchedConfig& cfg,
                                       const ModelRegistry* fallback = nullptr);
FleetSchedMetrics simulate_fleet_sched(const std::vector<Request>& workload,
                                       const ModelRegistry& registry,
                                       const FleetSchedConfig& cfg,
                                       const ModelRegistry* fallback = nullptr);

// ---------------------------------------------------------------------------
// Single-model sweeps: one ViT-Base whose depth comes from --layers, timed
// per strategy into a one-model registry. Both default to the timeout
// flush; the reports write it as `policy` ("greedy" for fifo).

// A (strategy x arrival-rate) sweep over one shard.
struct SweepConfig {
  nn::VitConfig model;
  core::StrategyConfig strategy_cfg;
  std::vector<core::Strategy> strategies = {core::Strategy::kTC,
                                            core::Strategy::kVitBit};
  std::vector<double> rates_rps = {100, 200, 300, 400, 500};
  // rate_rps is overridden per sweep point; kind/duration/seed are shared
  // so both strategies face byte-identical request streams.
  WorkloadConfig workload;
  SchedConfig server = [] {
    SchedConfig s;
    s.mode = "timeout";
    return s;
  }();
  // Degraded-mode strategy when server.faults.degrade_below_live > 0: its
  // latency table is memoized alongside the swept strategies (no extra
  // simulations when it is already one of them, the common TC-next-to-
  // VitBit case) and swapped in while live replicas are below threshold.
  core::Strategy fallback_strategy = core::Strategy::kTC;

  void validate() const;
};

struct SweepPoint {
  core::Strategy strategy = core::Strategy::kTC;
  double rate_rps = 0.0;
  ServeMetrics metrics;
};

// Phase 1 memoizes the latency tables (every (strategy, batch-size)
// inference in one time_inferences call); phase 2 runs a one-shard fleet
// with exact percentiles per (strategy, rate) point. Both phases fan out
// over `pool` and assemble in index order.
std::vector<SweepPoint> run_rate_sweep(const SweepConfig& cfg,
                                       const arch::OrinSpec& spec,
                                       const arch::Calibration& calib,
                                       ThreadPool* pool = nullptr);

// One row per rate, goodput / p99 / drop columns per strategy.
Table sweep_table(const SweepConfig& cfg,
                  const std::vector<SweepPoint>& points);

// Shared flag set of serve_sim and `vitbit_cli serve`: model/workload/
// server knobs (--layers, --rates/--rate, --arrival, --duration-s,
// --seed, --policy=greedy|timeout, --max-batch, --batch-timeout-us,
// --queue-capacity, --num-gpus, --slo-us) plus the fault-injection knobs
// (--fault-seed, --mtbf-s, --mttr-s, --batch-fail-prob, --spike-prob,
// --spike-mult, --max-retries, --retry-backoff-us, --degrade-below,
// --fallback). Validates the assembled config before returning.
SweepConfig sweep_config_from_cli(const Cli& cli);

// Schema-versioned report: one ServePointReport per sweep point plus the
// sweep's full knob set in meta (the baseline gate requires meta to match
// exactly). host_wall_seconds is left 0 for the caller.
report::RunReport make_serve_report(const SweepConfig& cfg,
                                    const std::vector<SweepPoint>& points,
                                    const std::string& tool, int threads);

// A (route x arrival-rate) sweep over an N-shard fleet of one model. The
// model is staged on every shard before traffic, so warm routing acts as
// jsq exactly.
struct FleetSweepConfig {
  nn::VitConfig model;
  core::StrategyConfig strategy_cfg;
  core::Strategy strategy = core::Strategy::kVitBit;
  std::vector<RoutePolicy> routes = {RoutePolicy::kRoundRobin,
                                     RoutePolicy::kJsq, RoutePolicy::kPo2c};
  std::vector<double> rates_rps = {2000, 4000, 8000};
  // rate_rps is overridden per sweep point; kind/duration/seed are shared
  // so every policy faces byte-identical request streams.
  WorkloadConfig workload;
  FleetSchedConfig fleet = [] {
    FleetSchedConfig f;
    f.shard.mode = "timeout";
    return f;
  }();
  // Degraded-mode strategy when fleet.shard.faults.degrade_below_live > 0.
  core::Strategy fallback_strategy = core::Strategy::kTC;

  void validate() const;
};

struct FleetSchedPoint {
  std::string mode;
  RoutePolicy route = RoutePolicy::kJsq;
  double rate_rps = 0.0;
  FleetSchedMetrics metrics;
};

// Phase 1 memoizes the strategy (and fallback) latency tables; phase 2
// runs the fleet per (route, rate) point over `pool` in index order.
std::vector<FleetSchedPoint> run_fleet_sweep(const FleetSweepConfig& cfg,
                                             const arch::OrinSpec& spec,
                                             const arch::Calibration& calib,
                                             ThreadPool* pool = nullptr);

// One row per rate, goodput / p99 / drop / utilization spread per route.
Table fleet_table(const FleetSweepConfig& cfg,
                  const std::vector<FleetSchedPoint>& points);

// Shared flag set of fleet_sim and `vitbit_cli fleet`: the serve flags
// (with --replicas, the per-shard GPU count, in place of --num-gpus) plus
// --shards, --routes/--route, --route-seed, --strategy, --exact (exact
// percentiles instead of P² sketches), and the autoscaling knobs
// (--min-replicas, --max-replicas, --scale-interval-us, --scale-up-depth,
// --scale-down-depth, --scale-p99-us, --scale-cooldown-us). Autoscaling
// turns on when --max-replicas exceeds --min-replicas. Validates the
// assembled config before returning.
FleetSweepConfig fleet_config_from_cli(const Cli& cli);

report::RunReport make_fleet_report(const FleetSweepConfig& cfg,
                                    const std::vector<FleetSchedPoint>& points,
                                    const std::string& tool, int threads);

// ---------------------------------------------------------------------------
// Zoo sweeps: a registry over named zoo models under one strategy.

// A (mode x offered-rate) sweep over one shard at fixed traffic mix:
// every point faces the byte-identical request stream, so mode deltas are
// scheduling, not sampling. Class traffic (workload.classes) and class
// scheduling contracts (sched.classes) pair up by index.
struct SchedSweepConfig {
  std::vector<std::string> model_names = {"vit-b"};
  // One serving strategy for the whole zoo; per-model strategy knobs
  // (the int4 pack factor) come from the catalog entries themselves.
  core::Strategy strategy = core::Strategy::kVitBit;
  std::vector<std::string> modes = {"fifo", "cb", "cb-pre"};
  std::vector<double> rates_rps = {200, 400};
  // rate_rps/num_models are overridden per point / from model_names.
  MixedWorkloadConfig workload;
  SchedConfig sched;
  SwapCostConfig swap;
  // kSketch keeps 10^6-request sweeps in O(1) memory per sink; --exact
  // flips to exact nearest-rank percentiles for small runs and tests.
  PercentileMode percentiles = PercentileMode::kSketch;

  void validate() const;
};

struct SchedPoint {
  std::string mode;
  double rate_rps = 0.0;
  SchedMetrics metrics;
};

// Phase 1 builds the model registry (one memoized latency table per
// model); phase 2 fans a one-shard fleet out over `pool` per (mode, rate)
// point in index order.
std::vector<SchedPoint> run_sched_sweep(const SchedSweepConfig& cfg,
                                        const arch::OrinSpec& spec,
                                        const arch::Calibration& calib,
                                        ThreadPool* pool = nullptr);

// One row per (mode, rate) with aggregate goodput, drop rate,
// preemption/swap counts, and per-class p99 columns.
Table sched_table(const SchedSweepConfig& cfg,
                  const std::vector<SchedPoint>& points);

// Shared flag set of bench/sched_sim and `vitbit_cli sched`: zoo/traffic
// knobs (--models, --strategy, --modes, --rates/--rate, --classes,
// --weights, --slos-us, --shares, --arrivals, --mix or per-class
// --mix0/--mix1/..., --burst-on-s, --burst-off-s, --duration-s, --seed)
// and scheduler knobs (--max-batch, --queue-capacity, --num-gpus,
// --iters, --slo-us, --cache-models, --load-gbps, --warm-swap-us,
// --exact). List flags go through the hardened parsers of
// serve/server.h. Validates the assembled config before returning.
SchedSweepConfig sched_config_from_cli(const Cli& cli);

// Schema-versioned report: per (mode, rate) one aggregate "all" row plus
// one row per class and per model (report::SchedPointReport), with the
// sweep's full knob set in meta. host_wall_seconds is left 0.
report::RunReport make_sched_report(const SchedSweepConfig& cfg,
                                    const std::vector<SchedPoint>& points,
                                    const std::string& tool, int threads);

// A (mode x route x rate) sweep over an N-shard fleet at fixed traffic
// mix — every point faces the byte-identical request stream, so mode and
// route deltas are scheduling and placement, never sampling.
struct FleetSchedSweepConfig {
  std::vector<std::string> model_names = {"vit-tiny", "cnn-small"};
  core::Strategy strategy = core::Strategy::kVitBit;
  std::vector<std::string> modes = {"fifo", "cb", "cb-pre"};
  std::vector<RoutePolicy> routes = {RoutePolicy::kJsq, RoutePolicy::kWarm};
  std::vector<double> rates_rps = {200, 400};
  // rate_rps/num_models are overridden per point / from model_names.
  MixedWorkloadConfig workload;
  FleetSchedConfig fleet;
  SwapCostConfig swap;

  void validate() const;
};

// Phase 1 builds the shared model registry; phase 2 fans the fleet out
// over `pool` per (mode, route, rate) point in index order.
std::vector<FleetSchedPoint> run_fleet_sched_sweep(
    const FleetSchedSweepConfig& cfg, const arch::OrinSpec& spec,
    const arch::Calibration& calib, ThreadPool* pool = nullptr);

// One row per (mode, route, rate) with goodput, p99, drop rate,
// preemption / cold-swap counts, and the utilization spread.
Table fleet_sched_table(const FleetSchedSweepConfig& cfg,
                        const std::vector<FleetSchedPoint>& points);

// Shared flag set of bench/fleet_sched_sim and `vitbit_cli fleet-sched`:
// all of sched_config_from_cli's zoo/traffic/scheduler flags (--num-gpus
// is the per-shard replica count) plus the fleet knobs --shards,
// --routes/--route, --route-seed, --placement (none|spread),
// --cold-route-classes, and the fleet autoscaling knobs plus the
// preemption-aware --scale-preempt-per-s and --scale-slo-miss-rate.
// Validates the assembled config before returning.
FleetSchedSweepConfig fleet_sched_config_from_cli(const Cli& cli);

// Schema-versioned report: per (mode, route, rate) one aggregate "all"
// row plus one row per class and per model
// (report::FleetSchedPointReport), with the sweep's full knob set in
// meta. host_wall_seconds is left 0.
report::RunReport make_fleet_sched_report(
    const FleetSchedSweepConfig& cfg,
    const std::vector<FleetSchedPoint>& points, const std::string& tool,
    int threads);

}  // namespace vitbit::serve
