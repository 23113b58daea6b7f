// Scheduled-fleet tests (serve/cluster.h simulate_fleet_sched): warm
// routing's cold-swap reduction against jsq at identical offered
// traffic, spread placement's warm-start benefit, the preemption-aware
// autoscale signals, byte-determinism of sweeps across pool sizes,
// fleet_sched_points report round-trips, and the layered CLI parsing
// shared with bench/fleet_sched_sim and `vitbit_cli fleet-sched`.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "report/run_report.h"
#include "serve/cluster.h"

namespace vitbit::serve {
namespace {

const arch::OrinSpec kSpec;

ModelRegistry make_registry(const std::vector<std::string>& names,
                            int max_batch = 4,
                            SwapCostConfig swap = SwapCostConfig{}) {
  return ModelRegistry(names, core::Strategy::kVitBit, kSpec,
                       arch::default_calibration(), max_batch, swap);
}

Cli make_cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"fleet_sched_test"};
  for (const auto& f : flags) argv.push_back(f.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

MixedWorkloadConfig mixed_workload(double rate) {
  MixedWorkloadConfig w;
  w.rate_rps = rate;
  w.duration_s = 0.05;
  w.seed = 21;
  w.num_models = 2;
  w.classes.assign(2, ClassTraffic{});
  w.classes[0].rate_share = 0.25;
  w.classes[0].model_mix = {0.8, 0.2};
  w.classes[1].rate_share = 0.75;
  w.classes[1].model_mix = {0.3, 0.7};
  return w;
}

SchedConfig two_class_config(const std::string& mode) {
  SchedConfig sc;
  sc.mode = mode;
  sc.max_batch = 4;
  sc.queue_capacity = 24;
  sc.iters = 4;
  sc.classes = {ClassSpec{"interactive", 4.0, 400},
                ClassSpec{"batch", 1.0, 500'000}};
  sc.slo_us = 50'000;
  return sc;
}

TEST(FleetSched, WarmRoutingEliminatesColdSwapsUnderSpreadPlacement) {
  // Single class (all traffic routes warm), two models spread over four
  // shards with one LRU slot per replica: model-affinity routing keeps
  // every shard on its prestaged model forever (zero swaps), while jsq
  // mixes models on every shard and churns the caches cold.
  const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4);
  MixedWorkloadConfig w;
  w.rate_rps = 100'000.0;
  w.duration_s = 0.05;
  w.seed = 5;
  w.num_models = 2;
  w.classes.assign(1, ClassTraffic{});
  w.classes[0].model_mix = {0.5, 0.5};

  FleetSchedConfig fc;
  fc.num_shards = 4;
  fc.shard.mode = "cb";
  fc.shard.max_batch = 4;
  fc.shard.iters = 4;
  fc.shard.queue_capacity = 24;
  fc.placement = PlacementPolicy::kSpread;

  fc.route = RoutePolicy::kJsq;
  const auto jsq = simulate_fleet_sched(w, reg, fc);
  fc.route = RoutePolicy::kWarm;
  const auto warm = simulate_fleet_sched(w, reg, fc);

  EXPECT_EQ(warm.total.total.offered, jsq.total.total.offered);
  EXPECT_GT(jsq.total.cold_swaps, 0u);
  EXPECT_EQ(warm.total.cold_swaps, 0u);
  EXPECT_EQ(warm.total.model_swaps, 0u);
  EXPECT_LT(warm.total.cold_swaps, jsq.total.cold_swaps);
}

TEST(FleetSched, SpreadPlacementBeatsColdStartUnderWarmRouting) {
  // Same traffic and warm routing, placement toggled: prestaging the zoo
  // means the warm mask is populated from the first arrival; with kNone
  // every shard starts empty (first load free, but the router has no
  // warm shard to steer to until loads have happened).
  const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4);
  MixedWorkloadConfig w;
  w.rate_rps = 100'000.0;
  w.duration_s = 0.05;
  w.seed = 5;
  w.num_models = 2;
  w.classes.assign(1, ClassTraffic{});
  w.classes[0].model_mix = {0.5, 0.5};

  FleetSchedConfig fc;
  fc.num_shards = 4;
  fc.shard.mode = "cb";
  fc.shard.max_batch = 4;
  fc.shard.iters = 4;
  fc.shard.queue_capacity = 24;
  fc.route = RoutePolicy::kWarm;

  fc.placement = PlacementPolicy::kNone;
  const auto cold_start = simulate_fleet_sched(w, reg, fc);
  fc.placement = PlacementPolicy::kSpread;
  const auto prestaged = simulate_fleet_sched(w, reg, fc);

  EXPECT_EQ(prestaged.total.total.offered, cold_start.total.total.offered);
  EXPECT_LE(prestaged.total.cold_swaps, cold_start.total.cold_swaps);
  EXPECT_EQ(prestaged.total.cold_swaps, 0u);
}

TEST(FleetSched, PreemptionSignalDrivesScaleUps) {
  // cb-pre with a 400 us interactive deadline at saturating load preempts
  // constantly. With the depth and p99 signals disabled, only the
  // preemption-rate signal can fire: on, replicas scale up; off, the
  // pool never grows.
  const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4);
  const auto w = mixed_workload(300'000.0);

  FleetSchedConfig fc;
  fc.num_shards = 2;
  fc.shard = two_class_config("cb-pre");
  // Equal weights and a 250 us deadline: queued interactive requests go
  // urgent under batch-heavy saturation, so eviction actually fires
  // (the same shape sched_test's preemption-benefit pin uses).
  fc.shard.classes[0].weight = 1.0;
  fc.shard.classes[0].slo_us = 250;
  fc.autoscale.min_replicas = 1;
  fc.autoscale.max_replicas = 4;
  fc.autoscale.interval_us = 5'000;
  fc.autoscale.cooldown_us = 0;
  fc.autoscale.up_queue_depth = 1'000'000;  // depth signal off
  fc.autoscale.up_p99_us = 0;               // p99 signal off

  fc.autoscale.up_preempt_per_s = 1.0;
  const auto with_signal = simulate_fleet_sched(w, reg, fc);
  EXPECT_GT(with_signal.total.preemptions, 0u);
  EXPECT_GT(with_signal.scale_ups, 0u);

  fc.autoscale.up_preempt_per_s = 0.0;
  const auto without = simulate_fleet_sched(w, reg, fc);
  EXPECT_EQ(without.scale_ups, 0u);
}

TEST(FleetSched, SloMissSignalDrivesScaleUps) {
  // Same setup, but the scale-up trigger is the per-class SLO-miss rate:
  // the 400 us interactive deadline misses under saturation, so any
  // nonzero completed-and-missed fraction above 1% fires the signal.
  const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4);
  const auto w = mixed_workload(300'000.0);

  FleetSchedConfig fc;
  fc.num_shards = 2;
  fc.shard = two_class_config("cb");
  fc.autoscale.min_replicas = 1;
  fc.autoscale.max_replicas = 4;
  fc.autoscale.interval_us = 5'000;
  fc.autoscale.cooldown_us = 0;
  fc.autoscale.up_queue_depth = 1'000'000;
  fc.autoscale.up_p99_us = 0;
  fc.autoscale.up_slo_miss_rate = 0.01;
  const auto scaled = simulate_fleet_sched(w, reg, fc);
  EXPECT_GT(scaled.scale_ups, 0u);
}

FleetSchedSweepConfig small_sweep() {
  FleetSchedSweepConfig cfg;
  cfg.model_names = {"vit-tiny", "cnn-small"};
  cfg.rates_rps = {50'000, 250'000};
  cfg.workload = mixed_workload(0.0);    // rate overridden per point
  cfg.fleet.shard = two_class_config("fifo");  // mode overridden per point
  cfg.fleet.num_shards = 2;
  cfg.fleet.placement = PlacementPolicy::kSpread;
  return cfg;
}

TEST(FleetSchedSweep, ByteIdenticalAcrossPoolSizes) {
  const auto cfg = small_sweep();
  const auto& calib = arch::default_calibration();
  std::string first;
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const auto points = run_fleet_sched_sweep(cfg, kSpec, calib, &pool);
    const auto rep = make_fleet_sched_report(cfg, points, "fleet_sched_test",
                                             1);
    const std::string body = report::to_json(rep).dump();
    if (first.empty())
      first = body;
    else
      EXPECT_EQ(body, first) << "threads=" << threads;
  }
  EXPECT_FALSE(first.empty());
}

TEST(FleetSchedSweep, ReportRoundTripsAndIndexes) {
  const auto cfg = small_sweep();
  const auto& calib = arch::default_calibration();
  ThreadPool pool(2);
  const auto points = run_fleet_sched_sweep(cfg, kSpec, calib, &pool);
  EXPECT_EQ(points.size(), cfg.modes.size() * cfg.routes.size() *
                               cfg.rates_rps.size());
  auto rep = make_fleet_sched_report(cfg, points, "fleet_sched_test",
                                     static_cast<int>(pool.size()));
  // One "all" row plus one per class and per model, per point.
  const auto rows_per_point =
      1 + cfg.fleet.shard.classes.size() + cfg.model_names.size();
  EXPECT_EQ(rep.fleet_sched_points.size(), points.size() * rows_per_point);

  const std::string path = "fleet_sched_report_roundtrip_test.json";
  report::save_report_file(path, rep);
  const auto back = report::load_report_file(path);
  EXPECT_TRUE(report::to_json(back) == report::to_json(rep));

  const auto& rows = back.fleet_sched_points;
  const auto* p = report::find_point(rows, "fifo.jsq.all.all@50000");
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->offered, 0u);
  EXPECT_EQ(p->offered, p->completed + p->dropped);
  EXPECT_NE(report::find_point(rows, "cb-pre.warm.class.interactive@250000"),
            nullptr);
  EXPECT_EQ(report::find_point(rows, "fifo.po2c.all.all@50000"), nullptr);
}

TEST(FleetSchedCli, AssemblesConfigFromFlags) {
  const auto cli = make_cli(
      {"--models=vit-tiny,cnn-small", "--modes=cb,cb-pre",
       "--classes=interactive,batch", "--weights=4,1",
       "--slos-us=2000,500000", "--shares=0.25,0.75", "--rates=1000,2000",
       "--mix=0.5,0.5", "--iters=2", "--max-batch=4", "--shards=3",
       "--routes=jsq,warm", "--placement=spread", "--cold-route-classes=1",
       "--num-gpus=2", "--min-replicas=1", "--max-replicas=4",
       "--scale-preempt-per-s=2.5", "--scale-slo-miss-rate=0.05",
       "--duration-s=0.1"});
  const auto cfg = fleet_sched_config_from_cli(cli);
  EXPECT_TRUE(cli.unused().empty());
  EXPECT_EQ(cfg.fleet.num_shards, 3);
  ASSERT_EQ(cfg.routes.size(), 2u);
  EXPECT_EQ(cfg.routes[1], RoutePolicy::kWarm);
  EXPECT_EQ(cfg.fleet.placement, PlacementPolicy::kSpread);
  EXPECT_EQ(cfg.fleet.cold_route_classes, 1);
  EXPECT_EQ(cfg.fleet.shard.num_gpus, 2);
  EXPECT_TRUE(cfg.fleet.autoscale.enabled());
  EXPECT_DOUBLE_EQ(cfg.fleet.autoscale.up_preempt_per_s, 2.5);
  EXPECT_DOUBLE_EQ(cfg.fleet.autoscale.up_slo_miss_rate, 0.05);
  ASSERT_EQ(cfg.fleet.shard.classes.size(), 2u);
  EXPECT_EQ(cfg.fleet.shard.classes[0].name, "interactive");
}

TEST(FleetSchedCli, RejectsMalformedFlags) {
  // Negative unsigned knob: must fail loud, not wrap.
  EXPECT_THROW(fleet_sched_config_from_cli(make_cli(
                   {"--models=vit-tiny", "--cold-route-classes=-1"})),
               CheckError);
  // Out-of-range fleet counts.
  for (const char* flag : {"--shards=4294967298", "--max-replicas=0",
                           "--cold-route-classes=2147483648"})
    EXPECT_THROW(fleet_sched_config_from_cli(make_cli({flag})), CheckError)
        << flag;
  // Unknown placement policy.
  EXPECT_THROW(fleet_sched_config_from_cli(make_cli(
                   {"--models=vit-tiny", "--placement=affinity"})),
               CheckError);
  // Unknown route policy.
  EXPECT_THROW(fleet_sched_config_from_cli(make_cli(
                   {"--models=vit-tiny", "--routes=jsq,hot"})),
               CheckError);
  // Negative preemption-rate threshold (validated once autoscaling is
  // actually enabled by max > min replicas).
  EXPECT_THROW(fleet_sched_config_from_cli(make_cli(
                   {"--models=vit-tiny", "--max-replicas=4",
                    "--scale-preempt-per-s=-1"})),
               CheckError);
}

}  // namespace
}  // namespace vitbit::serve
