// Serving-simulator tests: workload generator reproducibility and
// validation, the shard's fifo and timeout flushes, the bounded admission
// queue, the single-server event loop, the serve CLI's flag checks, and
// the tier-1 determinism acceptance — a rate sweep must serialize to
// byte-identical reports at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "nn/vit_model.h"
#include "serve/cluster.h"
#include "serve_util.h"

namespace vitbit::serve {
namespace {

Cli make_cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"serve_test"};
  for (const auto& f : flags) argv.push_back(f.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Workload, SameSeedSameStreamEveryKind) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty}) {
    WorkloadConfig cfg;
    cfg.kind = kind;
    cfg.rate_rps = 500;
    cfg.duration_s = 0.5;
    cfg.seed = 99;
    const auto a = generate_workload(cfg);
    const auto b = generate_workload(cfg);
    ASSERT_EQ(a.size(), b.size()) << arrival_kind_name(kind);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    }
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  WorkloadConfig cfg;
  cfg.rate_rps = 500;
  cfg.duration_s = 0.5;
  cfg.seed = 1;
  const auto a = generate_workload(cfg);
  cfg.seed = 2;
  const auto b = generate_workload(cfg);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].arrival_us != b[i].arrival_us;
  EXPECT_TRUE(differs);
}

TEST(Workload, IdsSequentialAndArrivalsSortedWithinDuration) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty}) {
    WorkloadConfig cfg;
    cfg.kind = kind;
    cfg.rate_rps = 1000;
    cfg.duration_s = 0.3;
    cfg.seed = 3;
    const auto w = generate_workload(cfg);
    ASSERT_FALSE(w.empty()) << arrival_kind_name(kind);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(w[i].id, i);
      if (i > 0) {
        EXPECT_GE(w[i].arrival_us, w[i - 1].arrival_us);
      }
      EXPECT_LT(w[i].arrival_us,
                static_cast<std::uint64_t>(cfg.duration_s * 1e6));
    }
  }
}

TEST(Workload, LongRunMeanRateApproximatesConfig) {
  // Every process targets the same long-run average; 5 virtual seconds at
  // 1000 req/s should land near 5000 for all three (deterministic given
  // the pinned seed, wide margins for the bursty process's variance).
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty}) {
    WorkloadConfig cfg;
    cfg.kind = kind;
    cfg.rate_rps = 1000;
    cfg.duration_s = 5.0;
    cfg.seed = 11;
    const auto n = generate_workload(cfg).size();
    EXPECT_GT(n, 4000u) << arrival_kind_name(kind);
    EXPECT_LT(n, 6000u) << arrival_kind_name(kind);
  }
}

TEST(Workload, UniformInterArrivalsBounded) {
  WorkloadConfig cfg;
  cfg.kind = ArrivalKind::kUniform;
  cfg.rate_rps = 1000;  // mean gap 1000 us -> gaps in [500, 1500) us
  cfg.duration_s = 1.0;
  cfg.seed = 5;
  const auto w = generate_workload(cfg);
  for (std::size_t i = 1; i < w.size(); ++i) {
    const auto gap = w[i].arrival_us - w[i - 1].arrival_us;
    EXPECT_GE(gap, 499u);  // +-1 us for per-timestamp rounding
    EXPECT_LE(gap, 1501u);
  }
}

TEST(Workload, KindNamesRoundTrip) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty})
    EXPECT_EQ(arrival_kind_from_name(arrival_kind_name(kind)), kind);
  EXPECT_THROW(arrival_kind_from_name("gaussian"), CheckError);
}

TEST(Workload, RejectsNonFiniteRatesAndDurations) {
  // An infinite rate or duration never ends the stream: it must fail at
  // construction, not grow the workload until the process is killed.
  const double inf = std::numeric_limits<double>::infinity();
  WorkloadConfig w;
  w.rate_rps = inf;
  EXPECT_THROW(WorkloadStream{w}, CheckError);
  w = WorkloadConfig{};
  w.duration_s = inf;
  EXPECT_THROW(WorkloadStream{w}, CheckError);
  w = WorkloadConfig{};
  w.kind = ArrivalKind::kBursty;
  w.burst_off_s = inf;
  EXPECT_THROW(w.validate(), CheckError);
  MixedWorkloadConfig m;
  m.rate_rps = inf;
  EXPECT_THROW(m.validate(), CheckError);
  m = MixedWorkloadConfig{};
  m.duration_s = inf;
  EXPECT_THROW(m.validate(), CheckError);
  m = MixedWorkloadConfig{};
  m.classes[0].kind = ArrivalKind::kBursty;
  m.classes[0].burst_on_s = inf;
  EXPECT_THROW(m.validate(), CheckError);
  // Finite shares and mixes whose sum overflows, and a rate x share that
  // does, leave no positive finite per-class rate or model share.
  m = MixedWorkloadConfig{};
  m.classes = {ClassTraffic{}, ClassTraffic{}};
  m.classes[0].rate_share = 1e308;
  m.classes[1].rate_share = 1e308;
  EXPECT_THROW(m.validate(), CheckError);
  m.classes[1].rate_share = 1.0;
  EXPECT_THROW(m.validate(), CheckError);
  m = MixedWorkloadConfig{};
  m.num_models = 2;
  m.classes[0].model_mix = {1e308, 1e308};
  EXPECT_THROW(m.validate(), CheckError);
  // The CLIs reject them before any latency table is built.
  EXPECT_THROW(sweep_config_from_cli(make_cli({"--rate=inf"})), CheckError);
  EXPECT_THROW(sweep_config_from_cli(make_cli({"--duration-s=inf"})),
               CheckError);
  EXPECT_THROW(fleet_sched_config_from_cli(make_cli({"--rate=inf"})),
               CheckError);
  EXPECT_THROW(fleet_sched_config_from_cli(make_cli({"--duration-s=inf"})),
               CheckError);
}

TEST(Batcher, GreedyAlwaysDispatches) {
  // fifo (the "greedy" flush) dispatches whatever is queued the moment a
  // replica is idle: a lone request leaves at once, and three
  // simultaneous ones ride one batch.
  SchedConfig sc;
  sc.max_batch = 4;
  const auto one = serve_one({{0, 0}}, flat_table(100, 4), sc);
  EXPECT_EQ(one.max_us, 100u);
  const auto three = serve_one({{0, 0}, {1, 0}, {2, 0}}, flat_table(100, 4),
                               sc);
  EXPECT_EQ(three.batches, 1u);
  EXPECT_DOUBLE_EQ(three.mean_batch_size, 3.0);
  EXPECT_EQ(three.max_us, 100u);
}

TEST(Batcher, TimeoutPolicySemantics) {
  SchedConfig sc;
  sc.mode = "timeout";
  sc.max_batch = 4;
  sc.batch_timeout_us = 2000;
  // Full batch: dispatch regardless of age.
  const auto full = serve_one({{0, 0}, {1, 0}, {2, 0}, {3, 0}},
                              flat_table(100, 4), sc);
  EXPECT_EQ(full.batches, 1u);
  EXPECT_EQ(full.max_us, 100u);
  // Partial batch: it waits for the head's deadline (100 + 2000), then
  // flushes both requests together.
  const auto partial = serve_one({{0, 100}, {1, 500}}, flat_table(100, 4), sc);
  EXPECT_EQ(partial.batches, 1u);
  EXPECT_DOUBLE_EQ(partial.mean_batch_size, 2.0);
  EXPECT_EQ(partial.max_us, 2100u);  // head: 2200 - 100
  EXPECT_EQ(partial.p50_us, 1700u);  // second: 2200 - 500
  // Past the deadline at admission (the replica was busy): no wait.
  const auto late = serve_one({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}},
                              flat_table(3000, 4), sc);
  EXPECT_EQ(late.batches, 2u);
  EXPECT_EQ(late.max_us, 6000u);
}

TEST(Batcher, UnknownPolicyAndBadConfigThrow) {
  SchedConfig bad;
  bad.mode = "lifo";
  EXPECT_THROW(bad.validate(), CheckError);
  bad = SchedConfig{};
  bad.max_batch = 0;
  EXPECT_THROW(bad.validate(), CheckError);
  bad = SchedConfig{};
  bad.queue_capacity = 0;
  EXPECT_THROW(bad.validate(), CheckError);
  bad = SchedConfig{};
  bad.batch_timeout_us = 0;
  EXPECT_THROW(bad.validate(), CheckError);
}

TEST(Batcher, QueueFifoAndDropAccounting) {
  // Capacity 2, one single-request replica: of four simultaneous
  // arrivals two are admitted and two dropped, and the admitted pair is
  // served in arrival order (100 us, then 200 us).
  SchedConfig sc;
  sc.max_batch = 1;
  sc.queue_capacity = 2;
  const auto m = serve_one({{0, 0}, {1, 0}, {2, 0}, {3, 0}},
                           flat_table(100, 1), sc);
  EXPECT_EQ(m.offered, 4u);
  EXPECT_EQ(m.dropped, 2u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.p50_us, 100u);
  EXPECT_EQ(m.max_us, 200u);
}

TEST(Server, LatencyTableBoundsChecked) {
  LatencyTable t;
  t.batch_latency_us = {0, 100, 150};
  EXPECT_EQ(t.max_batch(), 2);
  EXPECT_EQ(t.latency_us(1), 100u);
  EXPECT_EQ(t.latency_us(2), 150u);
  EXPECT_THROW(t.latency_us(0), CheckError);
  EXPECT_THROW(t.latency_us(3), CheckError);
}

TEST(Server, ParseRateList) {
  const auto rates = parse_rate_list("100,250.5,4000");
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  EXPECT_DOUBLE_EQ(rates[1], 250.5);
  EXPECT_DOUBLE_EQ(rates[2], 4000.0);
  EXPECT_THROW(parse_rate_list(""), CheckError);
  EXPECT_THROW(parse_rate_list("100,,200"), CheckError);
  EXPECT_THROW(parse_rate_list("100,fast"), CheckError);
  EXPECT_THROW(parse_rate_list("0"), CheckError);
  EXPECT_THROW(parse_rate_list("-5"), CheckError);
  // strtod parses these to +inf (or NaN) without tripping the end-pointer
  // check, so the finiteness rejection carries the test.
  EXPECT_THROW(parse_rate_list("inf"), CheckError);
  EXPECT_THROW(parse_rate_list("100,inf"), CheckError);
  EXPECT_THROW(parse_rate_list("nan"), CheckError);
  EXPECT_THROW(parse_rate_list("1e999"), CheckError);  // overflows to inf
}

TEST(Server, SecondReplicaAbsorbsConcurrentBatches) {
  // Two simultaneous singleton dispatches: one replica serializes them
  // (makespan 200 us), two replicas overlap them (100 us).
  const std::vector<Request> w = {{0, 0}, {1, 0}};
  SchedConfig cfg;
  cfg.max_batch = 1;
  const auto serial = serve_one(w, flat_table(100, 1), cfg);
  cfg.num_gpus = 2;
  const auto dual = serve_one(w, flat_table(100, 1), cfg);
  EXPECT_EQ(serial.completed, 2u);
  EXPECT_EQ(dual.completed, 2u);
  EXPECT_EQ(serial.max_us, 200u);
  EXPECT_EQ(dual.max_us, 100u);
  EXPECT_DOUBLE_EQ(dual.utilization, 1.0);  // both busy the whole makespan
}

TEST(Server, P99NonDecreasingInArrivalRate) {
  // Smoke property under the greedy policy: pushing the same open-loop
  // process harder can only deepen queueing, so the p99 latency at a fixed
  // seed must be non-decreasing in the arrival rate.
  const auto table = flat_table(1000, 4);  // capacity 4000 req/s
  SchedConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  std::uint64_t prev = 0;
  for (const double rate : {100.0, 1000.0, 2500.0, 4000.0, 8000.0}) {
    WorkloadConfig w;
    w.rate_rps = rate;
    w.duration_s = 1.0;
    w.seed = 21;
    const auto m = serve_one(generate_workload(w), table, cfg);
    EXPECT_GE(m.p99_us, prev) << "rate " << rate;
    prev = m.p99_us;
  }
}

TEST(ServeCli, RejectsOutOfRangeIntegerFlags) {
  // Integer flags range-check the int64 value before it narrows, so
  // none of these can wrap into a valid-looking config (1 GPU, a
  // near-2^64 timeout, a batch of 1).
  for (const char* flag :
       {"--num-gpus=-4294967295", "--batch-timeout-us=-5",
        "--max-batch=4294967297", "--slo-us=-1", "--layers=0",
        "--max-retries=-1", "--degrade-below=2147483648",
        "--retry-backoff-us=0", "--queue-capacity=4294967297"})
    EXPECT_THROW(sweep_config_from_cli(make_cli({flag})), CheckError) << flag;
  EXPECT_THROW(sweep_config_from_cli(make_cli({"--rate=100,200"})),
               CheckError);
  EXPECT_THROW(sweep_config_from_cli(make_cli({"--policy=lifo"})),
               CheckError);
  // Seeds take any 64-bit pattern.
  const auto cfg = sweep_config_from_cli(
      make_cli({"--seed=-1", "--fault-seed=-2", "--policy=greedy",
                "--max-batch=2147483647", "--slo-us=9223372036854775807"}));
  EXPECT_EQ(cfg.workload.seed, ~std::uint64_t{0});
  EXPECT_EQ(cfg.server.faults.seed, ~std::uint64_t{0} - 1);
  EXPECT_EQ(cfg.server.mode, "fifo");
  EXPECT_EQ(cfg.server.max_batch, 2147483647);
  EXPECT_EQ(cfg.server.slo_us, 9223372036854775807u);
}

// Tier-1 determinism acceptance: the full sweep (latency-table memoization
// + event loops, fanned over the pool) must serialize to byte-identical
// reports serially and on a 4-thread pool. Mirrors determinism_test's
// contract for time_inference.
TEST(Server, RateSweepReportByteIdenticalAcrossThreadCounts) {
  SweepConfig cfg;
  cfg.model = nn::vit_tiny();
  cfg.rates_rps = {500, 2000};
  cfg.workload.duration_s = 0.2;
  cfg.workload.seed = 42;
  cfg.server.max_batch = 2;
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();

  const auto serial = report::to_json(make_serve_report(
                          cfg, run_rate_sweep(cfg, spec, calib, nullptr),
                          "serve_test", 1))
                          .dump();
  ThreadPool four(4);
  const auto parallel = report::to_json(make_serve_report(
                            cfg, run_rate_sweep(cfg, spec, calib, &four),
                            "serve_test", 1))
                            .dump();
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace vitbit::serve
