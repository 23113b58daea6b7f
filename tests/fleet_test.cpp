// Fleet-tier behavior: routing policy decisions (serve/router.h),
// span-weighted shard aggregation and the end-to-end fleet loop
// (serve/cluster.h), and the shard's reactive autoscaler (serve/sched).
// All tables are tiny synthetic LatencyTables, so these pin pure
// queueing, routing, and accounting behavior with no kernel simulation
// involved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "serve/cluster.h"
#include "serve/router.h"
#include "serve_util.h"

namespace vitbit::serve {
namespace {

Cli make_cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"fleet_test"};
  for (const auto& f : flags) argv.push_back(f.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

const ModelRegistry& tiny_registry() {
  static const ModelRegistry reg({"m"}, {tiny_table()});
  return reg;
}

TEST(RoutePolicy, NamesRoundTrip) {
  for (const auto p : {RoutePolicy::kRandom, RoutePolicy::kRoundRobin,
                       RoutePolicy::kJsq, RoutePolicy::kPo2c})
    EXPECT_EQ(route_policy_from_name(route_policy_name(p)), p);
  EXPECT_THROW(route_policy_from_name("fastest"), CheckError);
}

TEST(RoutePolicy, ParseRouteList) {
  const auto routes = parse_route_list("rr,jsq,po2c");
  ASSERT_EQ(routes.size(), 3u);
  EXPECT_EQ(routes[0], RoutePolicy::kRoundRobin);
  EXPECT_EQ(routes[1], RoutePolicy::kJsq);
  EXPECT_EQ(routes[2], RoutePolicy::kPo2c);
  EXPECT_THROW(parse_route_list(""), CheckError);
  EXPECT_THROW(parse_route_list("rr,,jsq"), CheckError);
  EXPECT_THROW(parse_route_list("rr,bogus"), CheckError);
}

TEST(Router, RoundRobinIgnoresLoads) {
  const Router r(RoutePolicy::kRoundRobin, /*seed=*/9, /*num_shards=*/4);
  const std::vector<std::size_t> skewed = {100, 0, 100, 0};
  for (std::uint64_t id = 0; id < 12; ++id)
    EXPECT_EQ(r.route({id, 0}, skewed), static_cast<int>(id % 4));
}

TEST(Router, JsqPicksLowestLoadLowestIndex) {
  const Router r(RoutePolicy::kJsq, 9, 4);
  EXPECT_EQ(r.route({0, 0}, {3, 1, 2, 5}), 1);
  // Tie at the minimum: the lowest shard index wins.
  EXPECT_EQ(r.route({1, 0}, {2, 1, 1, 5}), 1);
  EXPECT_EQ(r.route({2, 0}, {0, 0, 0, 0}), 0);
}

TEST(Router, RandomDrawsArePureFunctionsOfTheRequestId) {
  // The determinism contract: a request's route depends only on
  // (seed, policy, id) — not on how many requests were routed before it.
  const Router r(RoutePolicy::kRandom, 42, 8);
  const std::vector<std::size_t> loads(8, 0);
  const int first = r.route({5, 0}, loads);
  for (std::uint64_t id = 0; id < 100; ++id) {
    const int s = r.route({id, 0}, loads);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 8);
  }
  EXPECT_EQ(r.route({5, 0}, loads), first);  // unchanged by the churn
}

TEST(Router, DifferentSeedsChangeRandomRoutes) {
  const std::vector<std::size_t> loads(8, 0);
  const Router a(RoutePolicy::kRandom, 1, 8);
  const Router b(RoutePolicy::kRandom, 2, 8);
  int diff = 0;
  for (std::uint64_t id = 0; id < 64; ++id)
    diff += a.route({id, 0}, loads) != b.route({id, 0}, loads);
  EXPECT_GT(diff, 0);
}

TEST(Router, Po2cPrefersTheLessLoadedProbe) {
  // Two shards, one saturated: every probe pair that spans both shards
  // must pick the empty one, so it receives a clear majority.
  const Router r(RoutePolicy::kPo2c, 7, 2);
  const std::vector<std::size_t> loads = {0, 1'000};
  int to_empty = 0;
  for (std::uint64_t id = 0; id < 200; ++id)
    to_empty += r.route({id, 0}, loads) == 0;
  // ~75% expected (only a both-probes-hit-1 pair routes to the loaded
  // shard); assert a clear majority with slack for the pinned seed.
  EXPECT_GT(to_empty, 120);
}

TEST(AggregateShardMetrics, SpanWeightedRatios) {
  // The regression this pins: two shards with unequal virtual-time spans
  // must aggregate utilization and queue depth weighted by span, never as
  // a naive mean of the per-shard ratios.
  ServeMetrics a;
  a.offered = 10;
  a.completed = 10;
  a.within_slo = 8;
  a.batches = 5;
  a.batched_requests = 10;
  a.busy_us = 50;
  a.replica_time_us = 100;  // utilization 0.5 over a short span
  a.depth_integral_us = 200;
  a.end_us = 100;
  a.max_queue_depth = 4;
  ServeMetrics b;
  b.offered = 32;
  b.completed = 30;
  b.dropped = 2;
  b.within_slo = 30;
  b.batches = 10;
  b.batched_requests = 30;
  b.busy_us = 60;
  b.replica_time_us = 300;  // utilization 0.2 over 3x the span
  b.depth_integral_us = 0;
  b.end_us = 300;
  b.max_queue_depth = 2;

  const auto m = aggregate_shard_metrics({a, b}, /*end_us=*/300);
  EXPECT_EQ(m.offered, 42u);
  EXPECT_EQ(m.completed, 40u);
  EXPECT_EQ(m.dropped, 2u);
  EXPECT_EQ(m.batches, 15u);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 40.0 / 15.0);
  EXPECT_DOUBLE_EQ(m.drop_rate, 2.0 / 42.0);
  // Span-weighted: (50 + 60) / (100 + 300) = 0.275. The naive mean of
  // the ratios would claim (0.5 + 0.2) / 2 = 0.35.
  EXPECT_DOUBLE_EQ(m.utilization, 110.0 / 400.0);
  // Depth integral over the sum of shard spans, not the fleet makespan.
  EXPECT_DOUBLE_EQ(m.mean_queue_depth, 200.0 / 400.0);
  EXPECT_EQ(m.max_queue_depth, 4u);
  // Rates divide by the fleet makespan.
  EXPECT_DOUBLE_EQ(m.duration_s, 300e-6);
  EXPECT_DOUBLE_EQ(m.throughput_rps, 40.0 / 300e-6);
  EXPECT_DOUBLE_EQ(m.goodput_rps, 38.0 / 300e-6);
}

TEST(AggregateShardMetrics, IdleShardDoesNotPoisonAggregates) {
  // A shard the router never touched finalizes with every field zero
  // (end_us == 0, replica_time_us == 0). Folding it into the aggregate
  // must leave every ratio finite and identical to the busy-shards-only
  // aggregate — a 0/0 from the degenerate shard must never surface as
  // NaN in utilization, mean queue depth, or the rates.
  ServeMetrics busy;
  busy.offered = 10;
  busy.completed = 10;
  busy.within_slo = 8;
  busy.batches = 5;
  busy.batched_requests = 10;
  busy.busy_us = 50;
  busy.replica_time_us = 100;
  busy.depth_integral_us = 200;
  busy.end_us = 100;
  busy.max_queue_depth = 4;
  const ServeMetrics idle;  // all-zero: the shard never saw a request

  const auto m = aggregate_shard_metrics({busy, idle}, /*end_us=*/100);
  EXPECT_TRUE(std::isfinite(m.utilization));
  EXPECT_TRUE(std::isfinite(m.mean_queue_depth));
  EXPECT_TRUE(std::isfinite(m.throughput_rps));
  EXPECT_TRUE(std::isfinite(m.goodput_rps));
  EXPECT_TRUE(std::isfinite(m.drop_rate));
  const auto solo = aggregate_shard_metrics({busy}, /*end_us=*/100);
  EXPECT_EQ(m.offered, solo.offered);
  EXPECT_DOUBLE_EQ(m.utilization, solo.utilization);
  EXPECT_DOUBLE_EQ(m.mean_queue_depth, solo.mean_queue_depth);
  EXPECT_DOUBLE_EQ(m.throughput_rps, solo.throughput_rps);
}

FleetSchedConfig small_fleet(RoutePolicy route, PercentileMode mode) {
  FleetSchedConfig cfg;
  cfg.num_shards = 2;
  cfg.route = route;
  cfg.percentiles = mode;
  cfg.shard.max_batch = 2;
  cfg.shard.queue_capacity = 16;
  cfg.shard.slo_us = 50'000;
  return cfg;
}

FleetSchedMetrics run_fleet(const WorkloadConfig& w,
                            const FleetSchedConfig& cfg) {
  return simulate_fleet_sched(w, tiny_registry(), cfg);
}

WorkloadConfig small_workload(double rate_rps) {
  WorkloadConfig w;
  w.rate_rps = rate_rps;
  w.duration_s = 0.25;
  w.seed = 3;
  return w;
}

TEST(SimulateFleet, ConservesRequestsUnderEveryPolicy) {
  for (const auto route : {RoutePolicy::kRandom, RoutePolicy::kRoundRobin,
                           RoutePolicy::kJsq, RoutePolicy::kPo2c}) {
    const auto m = run_fleet(small_workload(8'000),
                             small_fleet(route, PercentileMode::kSketch));
    ASSERT_EQ(m.per_shard.size(), 2u) << route_policy_name(route);
    const auto& t = m.total.total;
    EXPECT_GT(t.offered, 0u);
    EXPECT_EQ(t.offered, t.completed + t.dropped + t.shed)
        << route_policy_name(route);
    EXPECT_GT(t.p99_us, 0u);
  }
}

TEST(SimulateFleet, RerunsAreBitIdentical) {
  const auto cfg = small_fleet(RoutePolicy::kPo2c, PercentileMode::kSketch);
  const auto w = small_workload(12'000);
  const auto a = run_fleet(w, cfg);
  const auto b = run_fleet(w, cfg);
  EXPECT_EQ(a.total.total.completed, b.total.total.completed);
  EXPECT_EQ(a.total.total.dropped, b.total.total.dropped);
  EXPECT_EQ(a.total.total.p50_us, b.total.total.p50_us);
  EXPECT_EQ(a.total.total.p99_us, b.total.total.p99_us);
  EXPECT_DOUBLE_EQ(a.total.total.utilization, b.total.total.utilization);
  EXPECT_DOUBLE_EQ(a.shard_util_min, b.shard_util_min);
  EXPECT_DOUBLE_EQ(a.shard_util_max, b.shard_util_max);
  for (std::size_t i = 0; i < a.per_shard.size(); ++i)
    EXPECT_EQ(a.per_shard[i].total.completed,
              b.per_shard[i].total.completed)
        << i;
}

TEST(SimulateFleet, SketchPercentilesTrackExactMode) {
  // The same fleet run in both percentile modes: every count agrees
  // exactly (the modes only differ in how latencies are summarized) and
  // the sketch percentiles stay within the accuracy bound of exact
  // nearest-rank over the concatenated samples.
  const auto w = small_workload(16'000);
  const auto exact =
      run_fleet(w, small_fleet(RoutePolicy::kJsq, PercentileMode::kExact));
  const auto sketch =
      run_fleet(w, small_fleet(RoutePolicy::kJsq, PercentileMode::kSketch));
  EXPECT_EQ(exact.total.total.offered, sketch.total.total.offered);
  EXPECT_EQ(exact.total.total.completed, sketch.total.total.completed);
  EXPECT_EQ(exact.total.total.dropped, sketch.total.total.dropped);
  EXPECT_EQ(exact.total.total.max_us, sketch.total.total.max_us);
  ASSERT_GT(exact.total.total.completed, 1'000u);
  for (const auto& [e, s] :
       {std::pair{exact.total.total.p50_us, sketch.total.total.p50_us},
        std::pair{exact.total.total.p99_us, sketch.total.total.p99_us}}) {
    const double err = std::abs(static_cast<double>(s) -
                                static_cast<double>(e)) /
                       static_cast<double>(e);
    EXPECT_LE(err, 0.10) << "exact=" << e << " sketch=" << s;
  }
}

TEST(SimulateFleet, JsqTailBeatsRandomUnderLoad) {
  // The classic load-balancing separation, on an 8-shard fleet near 80%
  // load: blind random routing piles transient queues onto unlucky
  // shards, so its p99 sits well above the full join-shortest-queue
  // scan's. (Utilization spread is NOT a monotone quality signal at
  // overload — every policy saturates every shard — so the tail is the
  // discriminator here, as in the fleet_sim tables.)
  auto mk = [&](RoutePolicy route) {
    auto cfg = small_fleet(route, PercentileMode::kSketch);
    cfg.num_shards = 8;
    return run_fleet(small_workload(85'000), cfg);
  };
  const auto jsq = mk(RoutePolicy::kJsq);
  const auto rnd = mk(RoutePolicy::kRandom);
  ASSERT_GT(jsq.total.total.completed, 5'000u);
  EXPECT_GT(rnd.total.total.p99_us, jsq.total.total.p99_us);
}

TEST(ShardAutoscale, ScalesUpOnDepthAndBackDownWhenDrained) {
  // Hand-driven shard against the synthetic table, pinning the exact
  // scale-up and scale-down ticks. 10 simultaneous arrivals into one
  // enabled replica (greedy 2-batches, 150 us each): the tick at t=100
  // sees depth 8 > 4 and enables the second replica; the tick at t=400
  // sees an empty queue with the top replica idle and retires it.
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 2;
  as.interval_us = 100;
  as.up_queue_depth = 4;
  as.down_queue_depth = 1;
  as.cooldown_us = 100;
  SchedConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 16;
  SchedSim sim(tiny_registry(), cfg, PercentileMode::kSketch, as);
  EXPECT_EQ(sim.enabled_replicas(), 1);

  sim.begin_step(0);
  sim.maybe_autoscale(0);
  for (std::uint64_t i = 0; i < 10; ++i) sim.admit(0, {i, 0});
  sim.admit_due_retries(0);
  sim.dispatch(0);
  EXPECT_EQ(sim.load(), 10u);  // 8 queued + 2 in flight

  std::uint64_t now = 0;
  while (!sim.idle()) {
    now = std::min(sim.next_internal_event_us(), sim.next_timer_us());
    sim.begin_step(now);
    sim.maybe_autoscale(now);
    sim.admit_due_retries(now);
    sim.dispatch(now);
  }
  const auto m = sim.finalize(now).total;
  EXPECT_EQ(m.completed, 10u);
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_EQ(sim.scale_ups(), 1u);
  EXPECT_EQ(sim.scale_downs(), 1u);
  EXPECT_EQ(sim.enabled_replicas(), 1);
  // Two replicas ran the middle of the burst: strictly faster than the
  // 10-request / single-replica drain (5 batches x 150 us back to back).
  EXPECT_LT(now, 750u);
  // The replica-time integral reflects the enabled window over time, so
  // utilization is measured against what was actually provisioned.
  EXPECT_GT(m.replica_time_us, now);               // more than 1 replica-run
  EXPECT_LT(m.replica_time_us, 2 * now);           // less than 2 end-to-end
  EXPECT_GT(m.utilization, 0.5);
}

TEST(ShardAutoscale, FixedFleetNeverScales) {
  // Autoscaling disabled (max == min): the enabled window is pinned and
  // the counters stay zero no matter the load.
  SchedConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 4;
  SchedSim sim(tiny_registry(), cfg, PercentileMode::kSketch);
  sim.begin_step(0);
  for (std::uint64_t i = 0; i < 10; ++i) sim.admit(0, {i, 0});
  sim.dispatch(0);
  std::uint64_t now = 0;
  while (!sim.idle()) {
    now = sim.next_internal_event_us();
    sim.begin_step(now);
    sim.admit_due_retries(now);
    sim.dispatch(now);
  }
  sim.finalize(now);
  EXPECT_EQ(sim.scale_ups(), 0u);
  EXPECT_EQ(sim.scale_downs(), 0u);
  EXPECT_EQ(sim.enabled_replicas(), 1);
}

TEST(SimulateFleet, AutoscaleReactsToABurst) {
  // End to end through the fleet loop: a rate well past one replica's
  // capacity with headroom to grow must trigger scale-ups somewhere.
  auto cfg = small_fleet(RoutePolicy::kJsq, PercentileMode::kSketch);
  cfg.autoscale.min_replicas = 1;
  cfg.autoscale.max_replicas = 2;
  cfg.autoscale.interval_us = 5'000;
  cfg.autoscale.up_queue_depth = 4;
  cfg.autoscale.down_queue_depth = 1;
  cfg.autoscale.cooldown_us = 10'000;
  const auto m = run_fleet(small_workload(30'000), cfg);
  EXPECT_GT(m.scale_ups, 0u);
  const auto& t = m.total.total;
  EXPECT_EQ(t.offered, t.completed + t.dropped + t.shed);
}

TEST(SimulateFleet, IdleShardIsExcludedFromUtilizationSpread) {
  // At 100 rps the 10 ms interarrival gap dwarfs the 100 us service time,
  // so join-shortest-queue sees every shard empty at every arrival and
  // ties break to shard 0 — shard 1 never serves a request. The idle
  // shard's zero-width span must not drag shard_util_min to 0 (reporting
  // a maximally imbalanced fleet) or leak NaN into the aggregate.
  const auto m = run_fleet(
      small_workload(100),
      small_fleet(RoutePolicy::kJsq, PercentileMode::kSketch));
  ASSERT_EQ(m.per_shard.size(), 2u);
  EXPECT_GT(m.per_shard[0].total.completed, 0u);
  EXPECT_EQ(m.per_shard[1].total.offered, 0u);
  EXPECT_EQ(m.per_shard[1].total.end_us, 0u);
  EXPECT_TRUE(std::isfinite(m.total.total.utilization));
  EXPECT_TRUE(std::isfinite(m.total.total.mean_queue_depth));
  EXPECT_GT(m.shard_util_min, 0.0);
  EXPECT_DOUBLE_EQ(m.shard_util_min, m.per_shard[0].total.utilization);
  EXPECT_DOUBLE_EQ(m.shard_util_max, m.per_shard[0].total.utilization);
}

TEST(ShardAutoscale, NoDecisionTickAtVirtualTimeZero) {
  // The first evaluation lands one interval in: a deep queue at t = 0
  // must not trigger an instant scale-up (there is no load signal yet),
  // and the cooldown arithmetic must not underflow at time zero.
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 2;
  as.interval_us = 100;
  as.up_queue_depth = 4;
  as.down_queue_depth = 1;
  as.cooldown_us = 100;
  SchedConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 16;
  SchedSim sim(tiny_registry(), cfg, PercentileMode::kSketch, as);
  sim.begin_step(0);
  for (std::uint64_t i = 0; i < 10; ++i) sim.admit(0, {i, 0});
  sim.maybe_autoscale(0);  // depth 10 > 4, but t = 0 is before any tick
  EXPECT_EQ(sim.scale_ups(), 0u);
  EXPECT_EQ(sim.enabled_replicas(), 1);
}

TEST(ShardAutoscale, DrainPhaseReplicaSecondsAreExact) {
  // Pins the replica-time integral through a scale-down that happens
  // during the final drain (queue already empty, one batch still in
  // flight). 10 arrivals at t=0 into one replica, greedy 2-batches at
  // 150 us: scale-up at the t=100 tick, scale-down at the t=400 tick,
  // last completion at t=450. The exact integral is
  //   1 replica * [0, 100) + 2 * [100, 400) + 1 * [400, 450] = 750 us,
  // and with both replicas busy whenever enabled, utilization is 1.0.
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 2;
  as.interval_us = 100;
  as.up_queue_depth = 4;
  as.down_queue_depth = 1;
  as.cooldown_us = 100;
  SchedConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 16;
  SchedSim sim(tiny_registry(), cfg, PercentileMode::kSketch, as);

  sim.begin_step(0);
  sim.maybe_autoscale(0);
  for (std::uint64_t i = 0; i < 10; ++i) sim.admit(0, {i, 0});
  sim.admit_due_retries(0);
  sim.dispatch(0);
  std::uint64_t now = 0;
  while (!sim.idle()) {
    now = std::min(sim.next_internal_event_us(), sim.next_timer_us());
    sim.begin_step(now);
    sim.maybe_autoscale(now);
    sim.admit_due_retries(now);
    sim.dispatch(now);
  }
  EXPECT_EQ(now, 450u);
  const auto m = sim.finalize(now).total;
  EXPECT_EQ(m.completed, 10u);
  EXPECT_EQ(sim.scale_ups(), 1u);
  EXPECT_EQ(sim.scale_downs(), 1u);
  EXPECT_EQ(m.replica_time_us, 750u);
  EXPECT_DOUBLE_EQ(m.utilization, 1.0);
}

TEST(ShardAutoscale, HugeCooldownSaturatesInsteadOfWrapping) {
  // A cooldown near uint64 max (what a negative CLI value would wrap to)
  // must mean "never act again", not overflow past zero and re-arm the
  // autoscaler at the very next tick. After the one scale-up the shard
  // must never scale down, even once fully drained.
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 2;
  as.interval_us = 100;
  as.up_queue_depth = 4;
  as.down_queue_depth = 1;
  as.cooldown_us = std::numeric_limits<std::uint64_t>::max();
  SchedConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 16;
  SchedSim sim(tiny_registry(), cfg, PercentileMode::kSketch, as);

  sim.begin_step(0);
  for (std::uint64_t i = 0; i < 10; ++i) sim.admit(0, {i, 0});
  sim.dispatch(0);
  std::uint64_t now = 0;
  while (!sim.idle()) {
    now = std::min(sim.next_internal_event_us(), sim.next_timer_us());
    sim.begin_step(now);
    sim.maybe_autoscale(now);
    sim.admit_due_retries(now);
    sim.dispatch(now);
  }
  sim.finalize(now);
  EXPECT_EQ(sim.scale_ups(), 1u);
  EXPECT_EQ(sim.scale_downs(), 0u);
  EXPECT_EQ(sim.enabled_replicas(), 2);
}

TEST(FleetCli, RejectsNegativeAutoscaleFlags) {
  // Each autoscale duration/threshold flag parses through a signed
  // integer before the uint64 cast; a negative value must fail loud
  // instead of wrapping to a near-max cooldown or interval.
  EXPECT_THROW(fleet_config_from_cli(make_cli({"--scale-cooldown-us=-1"})),
               CheckError);
  EXPECT_THROW(fleet_config_from_cli(make_cli({"--scale-interval-us=-5"})),
               CheckError);
  EXPECT_THROW(fleet_config_from_cli(make_cli({"--scale-up-depth=-2"})),
               CheckError);
  // Shard and replica counts range-check before they narrow to int, so
  // 4294967298 cannot wrap to 2 shards.
  for (const char* flag : {"--shards=4294967298", "--replicas=-4294967295",
                           "--min-replicas=4294967297"})
    EXPECT_THROW(fleet_config_from_cli(make_cli({flag})), CheckError)
        << flag;
  // Sanity: the flags still work with legal values.
  const auto cfg = fleet_config_from_cli(
      make_cli({"--min-replicas=1", "--max-replicas=2",
                "--scale-cooldown-us=1000"}));
  EXPECT_EQ(cfg.fleet.autoscale.cooldown_us, 1000u);
}

TEST(FleetConfigValidate, RejectsBadShardCounts) {
  FleetSchedConfig cfg;
  cfg.num_shards = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(AutoscaleConfigValidate, RejectsInvertedThresholds) {
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 2;
  as.up_queue_depth = 2;
  as.down_queue_depth = 5;  // down > up: the hysteresis band is inverted
  EXPECT_THROW(as.validate(), CheckError);
  as.down_queue_depth = 2;
  as.validate();  // equal thresholds are allowed
  as.max_replicas = 0;
  EXPECT_THROW(as.validate(), CheckError);
}

}  // namespace
}  // namespace vitbit::serve
