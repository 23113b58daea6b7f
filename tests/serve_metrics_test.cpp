// Edge cases of the serving metrics sink: nearest-rank percentile
// conventions (empty / single / duplicate-heavy samples), drop-rate
// accounting at queue saturation, and the time-weighted queue-depth
// integral. These pin the exact conventions serve reports and baselines
// depend on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "serve/metrics.h"
#include "serve_util.h"

namespace vitbit::serve {
namespace {

TEST(PercentileNearestRank, EmptySamplesYieldZero) {
  EXPECT_EQ(percentile_nearest_rank({}, 0.0), 0u);
  EXPECT_EQ(percentile_nearest_rank({}, 50.0), 0u);
  EXPECT_EQ(percentile_nearest_rank({}, 99.0), 0u);
  EXPECT_EQ(percentile_nearest_rank({}, 100.0), 0u);
}

TEST(PercentileNearestRank, SingleSampleAtEveryPercentile) {
  const std::vector<std::uint64_t> one = {7};
  for (const double p : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0})
    EXPECT_EQ(percentile_nearest_rank(one, p), 7u) << "p=" << p;
}

TEST(PercentileNearestRank, NearestRankOnTenSamples) {
  // ceil(p/100 * 10) -> 1-indexed rank into the sorted samples.
  const std::vector<std::uint64_t> s = {10, 20, 30, 40, 50,
                                        60, 70, 80, 90, 100};
  EXPECT_EQ(percentile_nearest_rank(s, 0.0), 10u);    // min convention
  EXPECT_EQ(percentile_nearest_rank(s, 10.0), 10u);   // rank 1
  EXPECT_EQ(percentile_nearest_rank(s, 50.0), 50u);   // rank 5
  EXPECT_EQ(percentile_nearest_rank(s, 51.0), 60u);   // rank 6
  EXPECT_EQ(percentile_nearest_rank(s, 90.0), 90u);   // rank 9
  EXPECT_EQ(percentile_nearest_rank(s, 99.0), 100u);  // rank 10
  EXPECT_EQ(percentile_nearest_rank(s, 100.0), 100u);
}

TEST(PercentileNearestRank, DuplicateHeavySamples) {
  // 99 copies of 5 and one outlier: p99 still lands on a 5 (rank 99),
  // only p100 reaches the outlier.
  std::vector<std::uint64_t> s(99, 5);
  s.push_back(1000);
  EXPECT_EQ(percentile_nearest_rank(s, 50.0), 5u);
  EXPECT_EQ(percentile_nearest_rank(s, 99.0), 5u);
  EXPECT_EQ(percentile_nearest_rank(s, 100.0), 1000u);
}

TEST(PercentileNearestRank, SortsUnsortedInput) {
  EXPECT_EQ(percentile_nearest_rank({30, 10, 20}, 0.0), 10u);
  EXPECT_EQ(percentile_nearest_rank({30, 10, 20}, 100.0), 30u);
}

TEST(PercentileNearestRank, RejectsOutOfRangePercentile) {
  EXPECT_THROW(percentile_nearest_rank({1}, -0.1), CheckError);
  EXPECT_THROW(percentile_nearest_rank({1}, 100.1), CheckError);
}

TEST(MetricsSink, TimeWeightedQueueDepth) {
  MetricsSink sink;
  sink.on_queue_depth(0, 2);   // depth 2 over [0, 10)
  sink.on_queue_depth(10, 0);  // depth 0 over [10, 20)
  const auto m = sink.finalize(/*num_replicas=*/1, /*end_us=*/20,
                               /*slo_us=*/100);
  EXPECT_DOUBLE_EQ(m.mean_queue_depth, 1.0);  // (2*10 + 0*10) / 20
  EXPECT_EQ(m.max_queue_depth, 2u);
}

TEST(MetricsSink, TailAfterLastChangeCountsAtThatDepth) {
  MetricsSink sink;
  sink.on_queue_depth(0, 4);  // never drained: depth 4 over the whole run
  const auto m = sink.finalize(1, 10, 100);
  EXPECT_DOUBLE_EQ(m.mean_queue_depth, 4.0);
}

TEST(MetricsSink, ZeroDurationFinalizesToZeroRates) {
  MetricsSink sink;
  sink.on_offered();
  const auto m = sink.finalize(1, 0, 100);
  EXPECT_EQ(m.offered, 1u);
  EXPECT_DOUBLE_EQ(m.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(m.goodput_rps, 0.0);
  EXPECT_DOUBLE_EQ(m.utilization, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_queue_depth, 0.0);
}

TEST(MetricsSink, GoodputCountsOnlyWithinSlo) {
  MetricsSink sink;
  sink.on_completion(0, 50);    // latency 50 <= SLO
  sink.on_completion(0, 100);   // latency 100 == SLO (inclusive)
  sink.on_completion(0, 101);   // latency 101 > SLO
  const auto m = sink.finalize(1, 1'000'000, /*slo_us=*/100);
  EXPECT_EQ(m.completed, 3u);
  EXPECT_DOUBLE_EQ(m.throughput_rps, 3.0);
  EXPECT_DOUBLE_EQ(m.goodput_rps, 2.0);
}

TEST(MetricsSink, FaultCountersFinalizeVerbatim) {
  MetricsSink sink;
  sink.on_batch_failure();
  sink.on_batch_failure();
  sink.on_retry();
  sink.on_retry();
  sink.on_retry();
  sink.on_requeue();
  sink.on_shed();
  sink.on_failover();
  sink.add_degraded_us(250'000);
  sink.add_degraded_us(125'000);  // accumulates across failover episodes
  const auto m = sink.finalize(1, 1'000'000, 100);
  EXPECT_EQ(m.batch_failures, 2u);
  EXPECT_EQ(m.retries, 3u);
  EXPECT_EQ(m.requeued, 1u);
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.failovers, 1u);
  EXPECT_DOUBLE_EQ(m.degraded_s, 0.375);  // microseconds -> seconds
}

TEST(MetricsSink, FaultCountersDefaultToZero) {
  const auto m = MetricsSink{}.finalize(1, 1'000'000, 100);
  EXPECT_EQ(m.batch_failures, 0u);
  EXPECT_EQ(m.retries, 0u);
  EXPECT_EQ(m.requeued, 0u);
  EXPECT_EQ(m.shed, 0u);
  EXPECT_EQ(m.failovers, 0u);
  EXPECT_DOUBLE_EQ(m.degraded_s, 0.0);
}

TEST(ServeAccounting, DropsAtQueueSaturation) {
  // 10 simultaneous arrivals into capacity 2: the first two are admitted,
  // the other eight are load-shed, and exactly one 2-batch completes.
  std::vector<Request> workload;
  for (std::uint64_t i = 0; i < 10; ++i) workload.push_back({i, 0});
  SchedConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 2;
  const auto m = serve_one(workload, tiny_table(), cfg);
  EXPECT_EQ(m.offered, 10u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.dropped, 8u);
  EXPECT_DOUBLE_EQ(m.drop_rate, 0.8);
  EXPECT_EQ(m.batches, 1u);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 2.0);
  // Both requests ride the same batch: arrival 0, completion at 150 us.
  EXPECT_EQ(m.p50_us, 150u);
  EXPECT_EQ(m.max_us, 150u);
  EXPECT_EQ(m.max_queue_depth, 2u);
}

TEST(ServeAccounting, NoDropsBelowCapacity) {
  const std::vector<Request> workload = {{0, 0}, {1, 400}, {2, 800}};
  SchedConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 4;
  const auto m = serve_one(workload, tiny_table(), cfg);
  EXPECT_EQ(m.offered, 3u);
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_DOUBLE_EQ(m.drop_rate, 0.0);
  // Spaced singleton batches: every latency is the batch-1 service time.
  EXPECT_EQ(m.batches, 3u);
  EXPECT_EQ(m.p50_us, 100u);
  EXPECT_EQ(m.max_us, 100u);
}

}  // namespace
}  // namespace vitbit::serve
