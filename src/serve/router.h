// Request routing for the fleet tier (serve/cluster.h): picks the
// destination shard for each arrival under a pluggable balancing policy.
// Every random draw comes from a per-request Rng seeded as a pure
// function of (route seed, policy, request id), so routing decisions are
// independent of thread count, call history, and shard state mutations —
// the fleet determinism contract extends through the router unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/workload.h"

namespace vitbit::serve {

// The four balancing policies:
//   kRandom      uniform over shards (the stateless baseline)
//   kRoundRobin  request id modulo shard count — perfectly even offered
//                load, blind to queue state
//   kJsq         join-shortest-queue: full load scan, lowest load wins
//                (ties: lowest shard index) — the omniscient upper bound
//   kPo2c        power-of-two-choices: two independent uniform probes,
//                the less-loaded wins (ties: lower index) — near-JSQ tail
//                behavior at O(1) probe cost, the classic Mitzenmacher
//                result the fleet sweep reproduces
//   kWarm        model-affinity routing for the scheduled fleet
//                (serve/cluster.h simulate_fleet_sched): jsq restricted
//                to shards whose weight caches are warm for the
//                request's model (interactive classes) or cold (batch
//                classes, keeping them off the warm shards); falls back
//                to plain jsq when no shard is eligible. Deterministic —
//                no random draws. Through the mask-free route() overload
//                (no warmth signal) it degrades to jsq exactly.
enum class RoutePolicy { kRandom, kRoundRobin, kJsq, kPo2c, kWarm };

const char* route_policy_name(RoutePolicy policy);
// Accepts "random" | "rr" | "jsq" | "po2c" | "warm"; throws CheckError
// otherwise.
RoutePolicy route_policy_from_name(const std::string& name);
// "rr,jsq,po2c" -> the parsed list; throws CheckError on empty entries or
// unknown names — the --routes flag of fleet_sim and `vitbit_cli fleet`.
std::vector<RoutePolicy> parse_route_list(const std::string& spec);

class Router {
 public:
  Router(RoutePolicy policy, std::uint64_t seed, int num_shards);

  // Destination shard for `req` given the current per-shard loads
  // (queued + resident requests, SchedSim::load). `loads` must have one
  // entry per shard. kWarm has no warmth signal on this overload and
  // behaves as jsq.
  int route(const Request& req, const std::vector<std::size_t>& loads) const;

  // Class-aware overload for the scheduled fleet: `warm[s]` is nonzero
  // when shard s holds the request's model weights (SchedSim::warm_for,
  // sampled live before each decision, like `loads`). Under kWarm the
  // shard is picked by jsq among the eligible shards — warm ones, or the
  // cold ones when `prefer_cold` (batch-class traffic staying off the
  // warm set) — falling back to jsq among all shards when no shard is
  // eligible. Ties break to the lowest index; no random draws. Every
  // other policy ignores the mask and defers to the base overload.
  int route(const Request& req, const std::vector<std::size_t>& loads,
            const std::vector<char>& warm, bool prefer_cold) const;

  RoutePolicy policy() const { return policy_; }

 private:
  RoutePolicy policy_;
  std::uint64_t seed_;
  int num_shards_;
};

}  // namespace vitbit::serve
