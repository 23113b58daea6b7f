// Helpers shared by the serving tests: synthetic latency tables (pure
// queueing behavior, no kernel simulation) and the single server — one
// shard over a one-model registry, driven by simulate_fleet_sched.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/cluster.h"

namespace vitbit::serve {

// Constant-latency table covering batches [1, max_batch].
inline LatencyTable flat_table(std::uint64_t us, int max_batch) {
  LatencyTable t;
  t.batch_latency_us.assign(static_cast<std::size_t>(max_batch) + 1, us);
  t.batch_latency_us[0] = 0;
  return t;
}

// Two-batch table: batch 1 -> 100 us, batch 2 -> 150 us.
inline LatencyTable tiny_table() {
  LatencyTable t;
  t.batch_latency_us = {0, 100, 150};
  return t;
}

// `shard` serving `workload` alone over `table` (and the degraded-mode
// `fallback`), with exact percentiles.
inline ServeMetrics serve_one(const std::vector<Request>& workload,
                              const LatencyTable& table,
                              const SchedConfig& shard,
                              const LatencyTable* fallback = nullptr) {
  const ModelRegistry reg({"m"}, {table});
  FleetSchedConfig fc;
  fc.num_shards = 1;
  fc.shard = shard;
  fc.percentiles = PercentileMode::kExact;
  if (fallback == nullptr)
    return simulate_fleet_sched(workload, reg, fc).total.total;
  const ModelRegistry fb({"m"}, {*fallback});
  return simulate_fleet_sched(workload, reg, fc, &fb).total.total;
}

}  // namespace vitbit::serve
