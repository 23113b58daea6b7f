// Scheduler-tier tests (serve/sched/sched.h): request conservation
// across every mode, the cb-pre preemption benefit on the high-priority
// tail, model-swap pricing under the LRU weight cache, byte-determinism
// of sweeps across pool sizes, sched_points report round-trips, and the
// hardened CLI parsing shared with bench/sched_sim and `vitbit_cli
// sched`.
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

// One shard with exact percentiles: the scheduler on its own.
SchedMetrics run_shard(const std::vector<Request>& workload,
                       const ModelRegistry& reg, const SchedConfig& sc) {
  FleetSchedConfig fc;
  fc.num_shards = 1;
  fc.shard = sc;
  fc.percentiles = PercentileMode::kExact;
  return simulate_fleet_sched(workload, reg, fc).total;
}

Cli make_cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"sched_test"};
  for (const auto& f : flags) argv.push_back(f.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

// Field-by-field ServeMetrics equality (the streaming pin must be exact,
// not within tolerance).
void expect_metrics_equal(const ServeMetrics& a, const ServeMetrics& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_DOUBLE_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_DOUBLE_EQ(a.drop_rate, b.drop_rate);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_DOUBLE_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p90_us, b.p90_us);
  EXPECT_EQ(a.p95_us, b.p95_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.max_us, b.max_us);
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

TEST(SchedSim, ConservationHoldsInEveryMode) {
  const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4);
  const auto w = mixed_workload(300'000.0);
  const auto workload = generate_mixed_workload(w);
  for (const std::string mode : {"fifo", "cb", "cb-pre"}) {
    const auto m = run_shard(workload, reg, two_class_config(mode));
    EXPECT_EQ(m.total.offered, workload.size()) << mode;
    EXPECT_EQ(m.total.offered, m.total.completed + m.total.dropped) << mode;
    EXPECT_EQ(m.total.shed, 0u) << mode;
    std::uint64_t class_offered = 0;
    for (const auto& c : m.per_class) {
      EXPECT_EQ(c.offered, c.completed + c.dropped) << mode;
      class_offered += c.offered;
    }
    EXPECT_EQ(class_offered, m.total.offered) << mode;
    std::uint64_t model_completed = 0;
    for (const auto& pm : m.per_model) model_completed += pm.completed;
    EXPECT_EQ(model_completed, m.total.completed) << mode;
  }
}

TEST(SchedSim, StreamingOverloadMatchesVectorForm) {
  const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4);
  const auto w = mixed_workload(200'000.0);
  const auto cfg = two_class_config("cb-pre");
  const auto from_vector = run_shard(generate_mixed_workload(w), reg, cfg);
  FleetSchedConfig fc;
  fc.num_shards = 1;
  fc.shard = cfg;
  fc.percentiles = PercentileMode::kExact;
  const auto from_stream = simulate_fleet_sched(w, reg, fc).total;
  expect_metrics_equal(from_vector.total, from_stream.total);
  EXPECT_EQ(from_vector.preemptions, from_stream.preemptions);
  EXPECT_EQ(from_vector.model_swaps, from_stream.model_swaps);
  EXPECT_EQ(from_vector.swap_us, from_stream.swap_us);
}

TEST(SchedSim, PreemptionProtectsHighPriorityTail) {
  // Saturating, batch-heavy traffic with an SLO tight enough that queued
  // interactive requests go urgent: FIFO serves arrival order blind to
  // class, so the interactive tail rides the batch queue; cb-pre admits
  // urgent interactive requests first and evicts batch residents. The
  // interactive p99 must improve, and preemptions must actually fire.
  const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4);
  const auto w = mixed_workload(100'000.0);
  const auto workload = generate_mixed_workload(w);
  auto cfg = two_class_config("fifo");
  cfg.classes[0].weight = 1.0;
  cfg.classes[0].slo_us = 250;
  const auto fifo = run_shard(workload, reg, cfg);
  cfg.mode = "cb-pre";
  const auto pre = run_shard(workload, reg, cfg);
  EXPECT_EQ(fifo.preemptions, 0u);
  EXPECT_GT(pre.preemptions, 0u);
  EXPECT_LT(pre.per_class[0].p99_us, fifo.per_class[0].p99_us);
  // Both conserve the identical offered stream.
  EXPECT_EQ(fifo.total.offered, pre.total.offered);
  EXPECT_EQ(pre.total.offered, pre.total.completed + pre.total.dropped);
}

TEST(SchedSim, WeightCacheTurnsColdSwapsWarm) {
  // Two models alternating on one replica: with a one-model cache every
  // switch reloads weights cold over a slow link; a two-model cache keeps
  // both resident, so the same switches cost the flat warm activation.
  SwapCostConfig slow;
  slow.load_gbps = 0.05;
  SwapCostConfig roomy = slow;
  roomy.cache_models = 2;
  const auto cold_reg = make_registry({"vit-tiny", "vit-tiny-int4"}, 4, slow);
  const auto warm_reg =
      make_registry({"vit-tiny", "vit-tiny-int4"}, 4, roomy);
  const auto w = mixed_workload(150'000.0);
  const auto workload = generate_mixed_workload(w);
  const auto cfg = two_class_config("cb");
  const auto cold = run_shard(workload, cold_reg, cfg);
  const auto warm = run_shard(workload, warm_reg, cfg);
  EXPECT_GT(cold.model_swaps, 0u);
  EXPECT_GT(warm.model_swaps, 0u);
  EXPECT_GT(cold.swap_us, warm.swap_us);
}

TEST(WrrPrefers, ExactWhereDoublesRound) {
  // The double-precision hazard the exact comparator exists for: with
  // equal weights and served counts straddling 2^53, the cross products
  // 1 * (2^53 + 1) and 1 * 2^53 collapse to the same double, so the
  // double comparison reports a tie and the candidate never wins. The
  // exact comparison sees the strict inequality.
  const std::uint64_t big = 1ull << 53;
  EXPECT_FALSE(1.0 * (static_cast<double>(big) + 1.0) >
               1.0 * (static_cast<double>(big - 1) + 1.0));  // doubles tie
  EXPECT_TRUE(wrr_prefers(1.0, big - 1, 1.0, big));
  EXPECT_FALSE(wrr_prefers(1.0, big, 1.0, big - 1));
  // A ~2^30:1 weight ratio at the exact tie boundary: the low-weight
  // candidate's product is 2^53 + 1 against the incumbent's 2^30 * 2^23
  // = 2^53 — strictly ahead, but indistinguishable in doubles.
  const double heavy = 1073741824.0;  // 2^30
  EXPECT_TRUE(wrr_prefers(1.0, (1ull << 23) - 1, heavy, 1ull << 53));
  EXPECT_FALSE(wrr_prefers(heavy, 1ull << 53, 1.0, (1ull << 23) - 1));
}

TEST(WrrPrefers, AgreesWithDoublesOnExactCases) {
  // Anywhere the double cross products are exact the comparator must
  // reproduce them — the sched_sweep baseline depends on identical picks
  // for small weights and counts.
  for (const double wc : {1.0, 2.0, 4.0, 0.5, 10.0})
    for (const double wb : {1.0, 2.0, 4.0, 0.5, 10.0})
      for (const std::uint64_t sc : {0ull, 1ull, 7ull, 1000ull})
        for (const std::uint64_t sb : {0ull, 3ull, 9ull, 999ull})
          EXPECT_EQ(wrr_prefers(wc, sc, wb, sb),
                    wc * (static_cast<double>(sb) + 1.0) >
                        wb * (static_cast<double>(sc) + 1.0))
              << wc << "/" << sc << " vs " << wb << "/" << sb;
}

TEST(WrrPrefers, ExtremeRatioSharesMatchWeights) {
  // Drive the smooth-WRR selection loop the way pick_class does, with a
  // 1e9:1 weight ratio and both classes always eligible: the low-weight
  // class is outweighed at every pick until the heavy class has been
  // served 10^9 times, so the selection itself must stay exact — any
  // rounding in the comparison flips picks at the tie boundaries. Scaled
  // down to 5:1, a full cycle of 6 picks must land exactly {5, 1}.
  const double weights[2] = {5.0, 1.0};
  std::uint64_t served[2] = {0, 0};
  for (int i = 0; i < 6 * 100; ++i) {
    const int pick = wrr_prefers(weights[1], served[1], weights[0], served[0])
                         ? 1
                         : 0;
    ++served[pick];
  }
  EXPECT_EQ(served[0], 500u);
  EXPECT_EQ(served[1], 100u);
  // At 1e9:1 the low class must win exactly when its claim pulls ahead:
  // after the heavy class has been served 1e9 times, not one pick before.
  EXPECT_FALSE(wrr_prefers(1.0, 0, 1e9, 999'999'999));
  EXPECT_TRUE(wrr_prefers(1.0, 0, 1e9, 1'000'000'000));
}

TEST(SchedSim, SameModelPreemptionChargesNoSwap) {
  // cb-pre preemption against the weight cache, pinned end to end: a
  // low-priority model-0 resident is evicted mid-batch by an urgent
  // same-model interactive request. The replica's loaded weights serve
  // both the preemptor and the victim's restart, so the whole exchange
  // must charge zero swaps — preemption must not be double-billed as a
  // model activation.
  const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4);
  SchedConfig sc;
  sc.mode = "cb-pre";
  sc.max_batch = 1;  // the urgent arrival can only enter by preempting
  sc.queue_capacity = 8;
  sc.iters = 4;
  sc.classes = {ClassSpec{"interactive", 4.0, 1},  // always urgent
                ClassSpec{"batch", 1.0, 1'000'000'000}};
  sc.slo_us = 1'000'000'000;
  const std::vector<Request> workload = {
      {0, 0, 0, /*cls=*/1, /*model=*/0},
      {1, 1, 0, /*cls=*/0, /*model=*/0},
  };
  const auto m = run_shard(workload, reg, sc);
  EXPECT_EQ(m.total.completed, 2u);
  EXPECT_EQ(m.preemptions, 1u);
  EXPECT_EQ(m.model_swaps, 0u);
  EXPECT_EQ(m.swap_us, 0u);
  // The victim restarted from its original arrival, so it finished after
  // the preemptor despite arriving first.
  ASSERT_EQ(m.per_class.size(), 2u);
  EXPECT_GT(m.per_class[1].p99_us, m.per_class[0].p99_us);
}

TEST(SchedSim, CrossModelUrgencyCannotPreemptAndPricesLruExactly) {
  // The cross-model companion pin: an urgent request of a different
  // model can never evict residents (joining a busy different-model
  // batch is impossible), and once the batch drains the model switches
  // are priced off the replica's LRU cache exactly — cold for an
  // uncached model, warm when a roomier cache kept it resident.
  SwapCostConfig one_slot;
  one_slot.cache_models = 1;
  SwapCostConfig two_slots;
  two_slots.cache_models = 2;
  SchedConfig sc;
  sc.mode = "cb-pre";
  sc.max_batch = 1;
  sc.queue_capacity = 8;
  sc.iters = 4;
  sc.classes = {ClassSpec{"interactive", 4.0, 1},
                ClassSpec{"batch", 1.0, 1'000'000'000}};
  sc.slo_us = 1'000'000'000;
  // Model 0 serving when an urgent model-1 request arrives; a model-0
  // request far in the future forces a second activation of model 0.
  const std::vector<Request> workload = {
      {0, 0, 0, /*cls=*/1, /*model=*/0},
      {1, 1, 0, /*cls=*/0, /*model=*/1},
      {2, 100'000'000, 0, /*cls=*/1, /*model=*/0},
  };
  for (const int cache_models : {1, 2}) {
    const auto reg = make_registry({"vit-tiny", "cnn-small"}, 4,
                                   cache_models == 1 ? one_slot : two_slots);
    const auto m = run_shard(workload, reg, sc);
    EXPECT_EQ(m.total.completed, 3u) << cache_models;
    EXPECT_EQ(m.preemptions, 0u) << cache_models;
    EXPECT_EQ(m.model_swaps, 2u) << cache_models;
    // Swap 1 (model 0 -> 1) is always cold. Swap 2 (back to model 0) is
    // cold again with one cache slot (model 0 was evicted when model 1
    // loaded) but warm with two (model 0 stayed resident).
    const auto expected =
        cache_models == 1 ? reg.cold_swap_us(1) + reg.cold_swap_us(0)
                          : reg.cold_swap_us(1) + reg.warm_swap_us();
    EXPECT_EQ(m.swap_us, expected) << cache_models;
  }
}

SchedSweepConfig small_sweep() {
  SchedSweepConfig cfg;
  cfg.model_names = {"vit-tiny", "cnn-small"};
  cfg.rates_rps = {50'000, 250'000};
  cfg.workload = mixed_workload(0.0);  // rate overridden per point
  cfg.sched = two_class_config("fifo");  // mode overridden per point
  cfg.percentiles = PercentileMode::kSketch;
  return cfg;
}

TEST(SchedSweep, ByteIdenticalAcrossPoolSizes) {
  const auto cfg = small_sweep();
  const auto& calib = arch::default_calibration();
  std::string first;
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const auto points = run_sched_sweep(cfg, kSpec, calib, &pool);
    const auto rep = make_sched_report(cfg, points, "sched_test", 1);
    const std::string body = report::to_json(rep).dump();
    if (first.empty())
      first = body;
    else
      EXPECT_EQ(body, first) << "threads=" << threads;
  }
  EXPECT_FALSE(first.empty());
}

TEST(SchedSweep, ReportRoundTripsAndIndexes) {
  const auto cfg = small_sweep();
  const auto& calib = arch::default_calibration();
  ThreadPool pool(2);
  const auto points = run_sched_sweep(cfg, kSpec, calib, &pool);
  auto rep = make_sched_report(cfg, points, "sched_test", pool.size());
  // One "all" row plus one per class and per model, per (mode, rate).
  const auto rows_per_point = 1 + cfg.sched.classes.size() +
                              cfg.model_names.size();
  EXPECT_EQ(rep.sched_points.size(),
            cfg.modes.size() * cfg.rates_rps.size() * rows_per_point);

  const std::string path = "sched_report_roundtrip_test.json";
  report::save_report_file(path, rep);
  const auto back = report::load_report_file(path);
  EXPECT_TRUE(report::to_json(back) == report::to_json(rep));

  const auto& rows = back.sched_points;
  const auto* p = report::find_point(rows, "fifo.all.all@50000");
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->offered, 0u);
  EXPECT_EQ(p->offered, p->completed + p->dropped);
  EXPECT_NE(report::find_point(rows, "cb-pre.class.interactive@250000"),
            nullptr);
  EXPECT_EQ(report::find_point(rows, "lifo.all.all@50000"), nullptr);
}

TEST(SchedCli, AssemblesConfigFromFlags) {
  const auto cli = make_cli(
      {"--models=vit-tiny,cnn-small", "--modes=fifo,cb",
       "--classes=interactive,batch", "--weights=4,1",
       "--slos-us=2000,500000", "--shares=0.25,0.75", "--rates=1000,2000",
       "--mix0=0.8,0.2", "--mix1=0.3,0.7", "--iters=2", "--max-batch=4",
       "--cache-models=2", "--duration-s=0.1"});
  const auto cfg = sched_config_from_cli(cli);
  EXPECT_TRUE(cli.unused().empty());
  ASSERT_EQ(cfg.model_names.size(), 2u);
  ASSERT_EQ(cfg.sched.classes.size(), 2u);
  EXPECT_EQ(cfg.sched.classes[0].name, "interactive");
  EXPECT_DOUBLE_EQ(cfg.sched.classes[0].weight, 4.0);
  EXPECT_EQ(cfg.sched.classes[1].slo_us, 500'000u);
  ASSERT_EQ(cfg.workload.classes.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.workload.classes[1].rate_share, 0.75);
  ASSERT_EQ(cfg.workload.classes[0].model_mix.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.workload.classes[0].model_mix[0], 0.8);
  EXPECT_EQ(cfg.sched.iters, 2);
  EXPECT_EQ(cfg.swap.cache_models, 2);
}

TEST(SchedCli, RejectsMalformedFlags) {
  // Duplicate model names.
  EXPECT_THROW(sched_config_from_cli(
                   make_cli({"--models=vit-tiny,vit-tiny"})),
               CheckError);
  // Non-positive class weight.
  EXPECT_THROW(sched_config_from_cli(make_cli(
                   {"--classes=a,b", "--weights=0,1"})),
               CheckError);
  // Non-finite mix fraction.
  EXPECT_THROW(sched_config_from_cli(make_cli(
                   {"--models=vit-tiny,cnn-small", "--mix=inf,1"})),
               CheckError);
  EXPECT_THROW(sched_config_from_cli(make_cli(
                   {"--classes=a,b", "--shares=nan,0.5"})),
               CheckError);
  // Finite entries whose sum overflows: normalizing by an infinite sum
  // would make every cumulative mix share 0 and every class rate 0.
  EXPECT_THROW(sched_config_from_cli(make_cli(
                   {"--models=vit-tiny,cnn-small", "--mix=1e308,1e308"})),
               CheckError);
  EXPECT_THROW(sched_config_from_cli(make_cli(
                   {"--classes=a,b", "--shares=1e308,1e308"})),
               CheckError);
  // Mismatched per-class list lengths.
  EXPECT_THROW(sched_config_from_cli(make_cli(
                   {"--classes=a,b", "--weights=1,2,3"})),
               CheckError);
  // Unknown scheduling mode.
  EXPECT_THROW(sched_config_from_cli(make_cli({"--modes=lifo"})),
               CheckError);
  // Integer flags out of their range, instead of wrapping: an int knob,
  // an unsigned knob, and the per-class SLO list (integers only).
  for (const char* flag :
       {"--max-batch=4294967297", "--num-gpus=0", "--iters=-1",
        "--cache-models=4294967297", "--slo-us=-1", "--warm-swap-us=-1",
        "--slos-us=1e30", "--slos-us=2000.5", "--rate=inf"})
    EXPECT_THROW(sched_config_from_cli(make_cli({flag})), CheckError)
        << flag;
  // Unknown zoo model surfaces at registry build with the catalog listed.
  auto cfg = sched_config_from_cli(make_cli({}));
  cfg.model_names = {"vit-nope"};
  EXPECT_THROW(run_sched_sweep(cfg, kSpec, arch::default_calibration()),
               CheckError);
}

}  // namespace
}  // namespace vitbit::serve
