// The one global virtual-time event loop behind every serving sweep,
// driven by simulate_fleet_sched (serve/cluster.h) over SchedSim shards
// (serve/sched). The determinism contract lives here: shards step in
// index order at every timestamp (begin_step, then autoscale decisions,
// then arrivals routed on live loads, then due retries, then dispatch),
// and time advances to the earliest next event anywhere. The five
// committed serving baselines pin the event sequence byte for byte.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "serve/workload.h"

namespace vitbit::serve {

// Drives `shards` against `source` until the stream is drained and every
// shard is idle; returns the makespan (the largest timestamp reached).
// `Source` exposes has_next / peek_arrival_us / next; `Shard` exposes
// begin_step / maybe_autoscale / admit / admit_due_retries / dispatch /
// next_internal_event_us / next_timer_us / idle / load; `route_fn` maps
// (request, live per-shard loads) to a destination shard index. Loads are
// recomputed before every routing decision, so load-coupled policies see
// the effect of each admission on the next. Shards are NOT finalized —
// the caller owns finalize order and per-shard span choices.
template <typename Source, typename Shard, typename RouteFn>
std::uint64_t drive_fleet_loop(Source& source,
                               const std::vector<Shard*>& shards,
                               RouteFn&& route_fn) {
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  const auto n = shards.size();
  std::vector<std::size_t> loads(n);
  std::uint64_t now = 0;
  std::uint64_t end = 0;
  while (true) {
    for (auto* sh : shards) sh->begin_step(now);
    for (auto* sh : shards) sh->maybe_autoscale(now);
    while (source.has_next() && source.peek_arrival_us() <= now) {
      const Request r = source.next();
      for (std::size_t s = 0; s < n; ++s) loads[s] = shards[s]->load();
      shards[static_cast<std::size_t>(route_fn(r, loads))]->admit(now, r);
    }
    for (auto* sh : shards) sh->admit_due_retries(now);
    for (auto* sh : shards) sh->dispatch(now);

    std::uint64_t t_next = kNever;
    for (auto* sh : shards)
      t_next = std::min(t_next, sh->next_internal_event_us());
    if (source.has_next()) t_next = std::min(t_next, source.peek_arrival_us());
    bool all_idle = true;
    for (auto* sh : shards)
      if (!sh->idle()) {
        all_idle = false;
        break;
      }
    if (!source.has_next() && all_idle) break;  // drained
    // Fault and autoscale timers only keep the loop alive while work
    // remains somewhere in the fleet.
    for (auto* sh : shards) t_next = std::min(t_next, sh->next_timer_us());
    VITBIT_CHECK_MSG(t_next != kNever && t_next > now,
                     "fleet loop failed to advance");
    now = t_next;
    end = std::max(end, now);
  }
  return end;
}

}  // namespace vitbit::serve
