// Fault-injection tests: FaultModel schedule determinism and duty cycle,
// retry/backoff/shedding accounting in the event loop, degraded-mode
// failover plumbing, and the zero-fault compatibility pin — with every
// fault process off, the hardened loop must reproduce the pre-fault
// simulator's metrics bit for bit (values below were captured from the
// fault-free simulator before the fault path existed).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "nn/vit_model.h"
#include "report/run_report.h"
#include "serve/faults.h"
#include "serve/cluster.h"
#include "serve_util.h"

namespace vitbit::serve {
namespace {

TEST(FaultConfig, ValidateRejectsBadKnobs) {
  FaultConfig bad;
  bad.replica_mtbf_s = -1.0;
  EXPECT_THROW(bad.validate(), CheckError);
  bad = FaultConfig{};
  bad.replica_mtbf_s = 0.1;
  bad.replica_mttr_s = 0.0;  // failures enabled but no recovery time
  EXPECT_THROW(bad.validate(), CheckError);
  bad = FaultConfig{};
  bad.batch_failure_prob = 1.5;
  EXPECT_THROW(bad.validate(), CheckError);
  bad = FaultConfig{};
  bad.latency_spike_prob = 0.5;
  bad.latency_spike_mult = 0.5;  // a "spike" that speeds batches up
  EXPECT_THROW(bad.validate(), CheckError);
  bad = FaultConfig{};
  bad.max_retries = -1;
  EXPECT_THROW(bad.validate(), CheckError);
  bad = FaultConfig{};
  bad.retry_backoff_us = 0;
  EXPECT_THROW(bad.validate(), CheckError);
  EXPECT_NO_THROW(FaultConfig{}.validate());
}

TEST(FaultModel, ZeroConfigSchedulesNothingAndDrawsNothing) {
  const FaultConfig off;  // every process disabled
  EXPECT_FALSE(off.any_faults());
  FaultModel m(off, 3);
  EXPECT_EQ(m.live(), 3);
  for (int g = 0; g < 3; ++g) {
    EXPECT_TRUE(m.up(g));
    EXPECT_EQ(m.next_transition_us(g), FaultModel::kNever);
  }
  // No scheduled transition to apply.
  EXPECT_THROW(m.advance(0), CheckError);
  for (int i = 0; i < 100; ++i) {
    const auto fate = m.draw_batch_fate();
    EXPECT_FALSE(fate.fail);
    EXPECT_FALSE(fate.spike);
  }
}

TEST(FaultModel, TransitionSequencePinnedPerSeedAndReplica) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.replica_mtbf_s = 0.01;
  cfg.replica_mttr_s = 0.002;
  // A replica's schedule is a pure function of (seed, replica index):
  // the same replica in differently-sized fleets walks the same sequence.
  FaultModel two(cfg, 2);
  FaultModel four(cfg, 4);
  for (int step = 0; step < 50; ++step) {
    for (int g = 0; g < 2; ++g) {
      ASSERT_EQ(two.next_transition_us(g), four.next_transition_us(g))
          << "replica " << g << " step " << step;
      ASSERT_EQ(two.up(g), four.up(g));
      two.advance(g);
      four.advance(g);
    }
  }
  // A different fault seed moves the schedule.
  cfg.seed = 8;
  FaultModel other(cfg, 2);
  EXPECT_NE(two.next_transition_us(0), other.next_transition_us(0));
}

TEST(FaultModel, TransitionsStrictlyIncreaseAndFlipState) {
  FaultConfig cfg;
  cfg.replica_mtbf_s = 0.005;
  cfg.replica_mttr_s = 0.001;
  FaultModel m(cfg, 1);
  bool up = true;
  std::uint64_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    const auto t = m.next_transition_us(0);
    ASSERT_GT(t, prev);
    prev = t;
    m.advance(0);
    up = !up;
    ASSERT_EQ(m.up(0), up);
  }
}

TEST(FaultModel, DutyCycleTracksMtbfOverMttr) {
  // Statistical: with MTBF == MTTR the replica should be up about half of
  // a long horizon (~200 phases; wide bounds, pinned seed).
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.replica_mtbf_s = 0.05;
  cfg.replica_mttr_s = 0.05;
  FaultModel m(cfg, 1);
  const std::uint64_t horizon = 10'000'000;  // 10 virtual seconds
  std::uint64_t t = 0, up_us = 0;
  while (m.next_transition_us(0) < horizon) {
    const auto next = m.next_transition_us(0);
    if (m.up(0)) up_us += next - t;
    t = next;
    m.advance(0);
  }
  if (m.up(0)) up_us += horizon - t;
  const double duty = static_cast<double>(up_us) / 1e7;
  EXPECT_GT(duty, 0.35);
  EXPECT_LT(duty, 0.65);
}

TEST(FaultModel, RetryDelayDoublesFromBackoff) {
  FaultConfig cfg;
  cfg.retry_backoff_us = 1000;
  FaultModel m(cfg, 1);
  EXPECT_EQ(m.retry_delay_us(1), 1000u);
  EXPECT_EQ(m.retry_delay_us(2), 2000u);
  EXPECT_EQ(m.retry_delay_us(3), 4000u);
  // The shift saturates instead of overflowing for absurd attempt counts.
  EXPECT_EQ(m.retry_delay_us(64), std::uint64_t{1000} << 32);
  EXPECT_THROW(m.retry_delay_us(0), CheckError);
}

TEST(FaultModel, SpikedLatencyScalesAndStaysPositive) {
  FaultConfig cfg;
  cfg.latency_spike_prob = 1.0;
  cfg.latency_spike_mult = 4.0;
  FaultModel m(cfg, 1);
  EXPECT_EQ(m.spiked_latency_us(100), 400u);
  EXPECT_EQ(m.spiked_latency_us(1), 4u);
  cfg.latency_spike_mult = 1.0;
  EXPECT_EQ(FaultModel(cfg, 1).spiked_latency_us(7), 7u);
}

TEST(Retry, BudgetExhaustionShedsAfterBackedOffRetries) {
  // One request, every batch fails, generous SLO: attempt 1 fails at
  // t=100, retries at 1100 and 3200 (backoff 1000 then 2000), and the
  // third failure exceeds max_retries=2 -> shed. Exact event accounting.
  const std::vector<Request> w = {{0, 0}};
  SchedConfig cfg;
  cfg.max_batch = 1;
  cfg.faults.batch_failure_prob = 1.0;
  cfg.faults.max_retries = 2;
  cfg.faults.retry_backoff_us = 1000;
  const auto m = serve_one(w, flat_table(100, 1), cfg);
  EXPECT_EQ(m.offered, 1u);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.batch_failures, 3u);
  EXPECT_EQ(m.retries, 2u);
  EXPECT_EQ(m.requeued, 2u);
  EXPECT_EQ(m.batches, 3u);
  // Makespan: the third (final) attempt dispatched at 3200 completes
  // (and fails) at 3300.
  EXPECT_DOUBLE_EQ(m.duration_s, 0.0033);
}

TEST(Retry, SloDeadlineShedsBeforeBudgetRunsOut) {
  // Same scenario with a 1.5 ms SLO: the first retry (ready at 1100)
  // still makes the deadline, but the second would land at 3200 > 1500,
  // so the request is shed with budget remaining.
  const std::vector<Request> w = {{0, 0}};
  SchedConfig cfg;
  cfg.max_batch = 1;
  cfg.slo_us = 1500;
  cfg.faults.batch_failure_prob = 1.0;
  cfg.faults.max_retries = 10;
  cfg.faults.retry_backoff_us = 1000;
  const auto m = serve_one(w, flat_table(100, 1), cfg);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.batch_failures, 2u);
  EXPECT_EQ(m.retries, 1u);
  EXPECT_EQ(m.requeued, 1u);
}

TEST(Retry, TransientFailureRateBelowOneEventuallyCompletes) {
  // p=0.5 batch failures with a deep retry budget and roomy SLO: most
  // requests complete after some retries, every request is accounted for
  // (the conservation invariant offered == completed + dropped + shed is
  // also CHECK-enforced inside simulate_fleet_sched at drain).
  WorkloadConfig wl;
  wl.rate_rps = 500;
  wl.duration_s = 0.5;
  wl.seed = 13;
  SchedConfig cfg;
  cfg.max_batch = 4;
  cfg.faults.batch_failure_prob = 0.5;
  cfg.faults.max_retries = 8;
  cfg.faults.retry_backoff_us = 100;
  const auto m = serve_one(generate_workload(wl), flat_table(200, 4), cfg);
  EXPECT_GT(m.batch_failures, 0u);
  EXPECT_GT(m.requeued, 0u);
  EXPECT_GT(m.completed, m.offered / 2);
  EXPECT_EQ(m.offered, m.completed + m.dropped + m.shed);
}

TEST(Degrade, RequiresFallbackTable) {
  SchedConfig cfg;
  cfg.num_gpus = 2;
  cfg.faults.degrade_below_live = 2;
  EXPECT_THROW(serve_one({{0, 0}}, flat_table(100, 8), cfg), CheckError);
  // And the threshold cannot exceed the fleet size.
  cfg.faults.degrade_below_live = 3;
  const auto fb = flat_table(50, 8);
  EXPECT_THROW(serve_one({{0, 0}}, flat_table(100, 8), cfg, &fb), CheckError);
}

TEST(Degrade, ReplicaFailuresTriggerFailoverAndDegradedTime) {
  // Two replicas with short MTBF: any down replica puts the server in
  // degraded mode (threshold 2), so failovers and degraded time must
  // accumulate, and the run stays deterministic end to end.
  WorkloadConfig wl;
  wl.rate_rps = 1000;
  wl.duration_s = 0.5;
  wl.seed = 5;
  const auto w = generate_workload(wl);
  SchedConfig cfg;
  cfg.max_batch = 4;
  cfg.num_gpus = 2;
  cfg.faults.seed = 17;
  cfg.faults.replica_mtbf_s = 0.02;
  cfg.faults.replica_mttr_s = 0.01;
  cfg.faults.degrade_below_live = 2;
  const auto fallback = flat_table(100, 4);  // cheaper than the primary
  const auto a = serve_one(w, flat_table(400, 4), cfg, &fallback);
  const auto b = serve_one(w, flat_table(400, 4), cfg, &fallback);
  EXPECT_GT(a.failovers, 0u);
  EXPECT_GT(a.degraded_s, 0.0);
  EXPECT_GT(a.batch_failures, 0u);  // aborted in-flight batches
  EXPECT_EQ(a.offered, a.completed + a.dropped + a.shed);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_DOUBLE_EQ(a.degraded_s, b.degraded_s);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.p99_us, b.p99_us);
}

// Tier-1 determinism acceptance for the fault path: a fault sweep with
// every process enabled (failures, transient batch faults, spikes,
// degraded-mode failover to a fallback strategy that is NOT being swept)
// must serialize to byte-identical reports serially and on a 4-thread
// pool — the same contract serve_test pins for the fault-free sweep.
TEST(FaultSweep, ReportByteIdenticalAcrossThreadCounts) {
  SweepConfig cfg;
  cfg.model = nn::vit_tiny();
  cfg.rates_rps = {2000, 6000};
  cfg.workload.kind = ArrivalKind::kBursty;
  cfg.workload.duration_s = 0.2;
  cfg.workload.seed = 42;
  cfg.server.max_batch = 2;
  cfg.server.num_gpus = 2;
  cfg.server.faults.seed = 11;
  cfg.server.faults.replica_mtbf_s = 0.05;
  cfg.server.faults.replica_mttr_s = 0.02;
  cfg.server.faults.batch_failure_prob = 0.05;
  cfg.server.faults.latency_spike_prob = 0.1;
  cfg.server.faults.latency_spike_mult = 3.0;
  cfg.server.faults.degrade_below_live = 2;
  cfg.fallback_strategy = core::Strategy::kIC;  // memoized extra table
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();

  const auto serial = report::to_json(make_serve_report(
                          cfg, run_rate_sweep(cfg, spec, calib, nullptr),
                          "serve_faults_test", 1))
                          .dump();
  ThreadPool four(4);
  const auto parallel = report::to_json(make_serve_report(
                            cfg, run_rate_sweep(cfg, spec, calib, &four),
                            "serve_faults_test", 1))
                            .dump();
  EXPECT_EQ(serial, parallel);
}

struct PinnedPoint {
  std::uint64_t offered, completed, batches, max_queue_depth;
  std::uint64_t p50, p90, p95, p99;
  double mean_batch_size, throughput, goodput, utilization, mean_depth;
};

// Zero-fault compatibility pin: with FaultConfig left at its defaults the
// hardened event loop must reproduce the pre-fault simulator bit for bit.
// These constants were captured from the simulator BEFORE the fault path
// existed (1-layer ViT-Base, batch <= 2, poisson seed 42, 0.2 s at 500
// and 2000 req/s) — any drift here means the fault machinery leaks into
// fault-free runs.
TEST(FaultFree, SweepReproducesPreFaultSimulatorBitForBit) {
  SweepConfig cfg;
  cfg.model = nn::vit_base();
  cfg.model.num_layers = 1;
  cfg.rates_rps = {500, 2000};
  cfg.workload.duration_s = 0.2;
  cfg.workload.seed = 42;
  cfg.server.max_batch = 2;
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  const auto points = run_rate_sweep(cfg, spec, calib, nullptr);
  ASSERT_EQ(points.size(), 4u);

  const PinnedPoint expected[4] = {
      // TC @ 500
      {94, 94, 59, 2, 1172, 2372, 2397, 2639, 1.5932203389830508,
       473.58981076560326, 473.58981076560326, 0.15889441970133614,
       0.4113933616815461},
      // TC @ 2000
      {388, 388, 195, 6, 1021, 1556, 1953, 2372, 1.9897435897435898,
       1933.88891104111, 1933.88891104111, 0.6251345747438095,
       0.7956009011523586},
      // VitBit @ 500
      {94, 94, 59, 2, 1100, 2338, 2338, 2567, 1.5932203389830508,
       473.6709498614261, 473.6709498614261, 0.14211136306374403,
       0.4114638447971781},
      // VitBit @ 2000
      {388, 388, 195, 6, 842, 1443, 1799, 2256, 1.9897435897435898,
       1934.5831671320304, 1934.5831671320304, 0.5557339449541284,
       0.6967441164738731},
  };
  for (int i = 0; i < 4; ++i) {
    const auto& m = points[i].metrics;
    const auto& e = expected[i];
    EXPECT_EQ(m.offered, e.offered) << "point " << i;
    EXPECT_EQ(m.completed, e.completed) << "point " << i;
    EXPECT_EQ(m.dropped, 0u);
    EXPECT_EQ(m.batches, e.batches) << "point " << i;
    EXPECT_EQ(m.max_queue_depth, e.max_queue_depth) << "point " << i;
    EXPECT_EQ(m.p50_us, e.p50) << "point " << i;
    EXPECT_EQ(m.p90_us, e.p90) << "point " << i;
    EXPECT_EQ(m.p95_us, e.p95) << "point " << i;
    EXPECT_EQ(m.p99_us, e.p99) << "point " << i;
    EXPECT_DOUBLE_EQ(m.mean_batch_size, e.mean_batch_size) << "point " << i;
    EXPECT_DOUBLE_EQ(m.throughput_rps, e.throughput) << "point " << i;
    EXPECT_DOUBLE_EQ(m.goodput_rps, e.goodput) << "point " << i;
    EXPECT_DOUBLE_EQ(m.utilization, e.utilization) << "point " << i;
    EXPECT_DOUBLE_EQ(m.mean_queue_depth, e.mean_depth) << "point " << i;
    // And the fault accounting must be untouched zeros.
    EXPECT_EQ(m.batch_failures, 0u);
    EXPECT_EQ(m.retries, 0u);
    EXPECT_EQ(m.requeued, 0u);
    EXPECT_EQ(m.shed, 0u);
    EXPECT_EQ(m.failovers, 0u);
    EXPECT_DOUBLE_EQ(m.degraded_s, 0.0);
  }
}

TEST(Report, ServePointFaultFieldsRoundTripAndDefaultToZero) {
  report::ServePointReport p;
  p.strategy = "VitBit";
  p.policy = "timeout";
  p.arrival = "bursty";
  p.rate_rps = 1500;
  p.batch_failures = 3;
  p.retries = 7;
  p.requeued = 6;
  p.shed = 1;
  p.failovers = 2;
  p.degraded_s = 0.125;
  report::RunReport rep;
  rep.tool = "serve_faults_test";
  rep.serve_points.push_back(p);
  const auto j = report::to_json(rep);
  const auto back = report::run_report_from_json(j);
  ASSERT_EQ(back.serve_points.size(), 1u);
  EXPECT_EQ(back.serve_points[0].batch_failures, 3u);
  EXPECT_EQ(back.serve_points[0].retries, 7u);
  EXPECT_EQ(back.serve_points[0].requeued, 6u);
  EXPECT_EQ(back.serve_points[0].shed, 1u);
  EXPECT_EQ(back.serve_points[0].failovers, 2u);
  EXPECT_DOUBLE_EQ(back.serve_points[0].degraded_s, 0.125);
  // A fault-free point writes its fault fields as zeros and reads them
  // back as zeros.
  rep.serve_points.assign(1, report::ServePointReport{});
  const auto clean = report::run_report_from_json(report::to_json(rep));
  ASSERT_EQ(clean.serve_points.size(), 1u);
  EXPECT_EQ(clean.serve_points[0].batch_failures, 0u);
  EXPECT_EQ(clean.serve_points[0].shed, 0u);
  EXPECT_DOUBLE_EQ(clean.serve_points[0].degraded_s, 0.0);
}

}  // namespace
}  // namespace vitbit::serve
