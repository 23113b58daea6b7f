// Seeded serving scenarios over the one driver: a few hundred validated
// FleetSchedConfigs on synthetic tables, drawn across every shard mode,
// class and model counts with extreme WRR weights, shard counts, routes,
// placements, autoscaling (class signals and a saturating cooldown
// included), every fault process with degraded failover, and both
// percentile modes. Every draw must run without a CheckError, conserve
// requests in total and per class, rerun bit for bit, and count exactly
// the same in exact and sketch percentile modes. Plus 2,000 seeded
// mutations of valid specs for the serving CLIs' comma-list parsers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/cluster.h"

namespace vitbit::serve {
namespace {

constexpr std::uint64_t kScenarios = 300;

int pick(Rng& rng, int lo, int hi) {  // inclusive
  return lo +
         static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

struct Scenario {
  MixedWorkloadConfig workload;
  FleetSchedConfig fleet;
  std::vector<LatencyTable> tables;
  std::vector<LatencyTable> fallback_tables;
  SwapCostConfig swap;
};

std::vector<LatencyTable> draw_tables(Rng& rng, int models, int max_batch,
                                      double scale) {
  std::vector<LatencyTable> out(static_cast<std::size_t>(models));
  for (auto& t : out) {
    t.batch_latency_us.assign(static_cast<std::size_t>(max_batch) + 1, 0);
    const double base = rng.uniform(5.0, 400.0) * scale;
    const double step = rng.uniform(0.0, 100.0) * scale;
    for (int b = 1; b <= max_batch; ++b)
      t.batch_latency_us[static_cast<std::size_t>(b)] =
          1 + static_cast<std::uint64_t>(base + step * (b - 1));
  }
  return out;
}

Scenario draw(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  const int models = pick(rng, 1, 3);
  const int classes = pick(rng, 1, 3);
  auto& w = s.workload;
  w.rate_rps = rng.uniform(1e3, 8e4);
  w.duration_s = rng.uniform(0.002, 0.02);
  w.seed = rng.next_u64();
  w.num_models = models;
  w.classes.assign(static_cast<std::size_t>(classes), ClassTraffic{});
  for (auto& c : w.classes) {
    c.kind = static_cast<ArrivalKind>(rng.below(3));
    c.rate_share = rng.uniform(0.05, 1.0);
    c.burst_on_s = rng.uniform(0.001, 0.01);
    c.burst_off_s = rng.uniform(0.001, 0.02);
    if (rng.below(2) == 0)
      for (int m = 0; m < models; ++m)
        c.model_mix.push_back(m == 0 ? 0.1 : rng.uniform(0.0, 1.0));
  }

  auto& f = s.fleet;
  f.num_shards = pick(rng, 1, 4);
  f.route = static_cast<RoutePolicy>(rng.below(5));
  f.route_seed = rng.next_u64();
  f.placement = rng.below(2) == 0 ? PlacementPolicy::kNone
                                  : PlacementPolicy::kSpread;
  f.cold_route_classes = pick(rng, 0, 3);
  f.percentiles =
      rng.below(2) == 0 ? PercentileMode::kExact : PercentileMode::kSketch;
  auto& sh = f.shard;
  const char* modes[] = {"fifo", "timeout", "cb", "cb-pre"};
  sh.mode = modes[rng.below(4)];
  sh.num_gpus = pick(rng, 1, 3);
  sh.max_batch = pick(rng, 1, 6);
  sh.queue_capacity = pick(rng, 1, 48);
  sh.batch_timeout_us = 1 + rng.below(3000);
  sh.iters = pick(rng, 1, 5);
  sh.slo_us = 1 + rng.below(50'000);
  sh.classes.clear();
  for (int c = 0; c < classes; ++c)
    sh.classes.push_back({"c" + std::to_string(c),
                          std::pow(10.0, rng.uniform(-9.0, 9.0)),
                          1 + rng.below(30'000)});

  auto& fl = sh.faults;
  fl.seed = rng.next_u64();
  if (rng.below(2) == 0) {
    fl.replica_mtbf_s = rng.uniform(0.001, 0.03);
    fl.replica_mttr_s = rng.uniform(0.0005, 0.01);
  }
  if (rng.below(2) == 0) fl.batch_failure_prob = rng.uniform(0.0, 0.6);
  if (rng.below(2) == 0) {
    fl.latency_spike_prob = rng.uniform(0.0, 0.6);
    fl.latency_spike_mult = rng.uniform(1.0, 5.0);
  }
  fl.max_retries = pick(rng, 0, 4);
  fl.retry_backoff_us = 1 + rng.below(3000);

  if (rng.below(2) == 0) {
    auto& as = f.autoscale;
    as.min_replicas = pick(rng, 1, 2);
    as.max_replicas = as.min_replicas + pick(rng, 1, 3);
    as.interval_us = 1 + rng.below(3000);
    as.up_queue_depth = rng.below(12);
    as.down_queue_depth = rng.below(as.up_queue_depth + 1);
    as.up_p99_us = rng.below(3) == 0 ? 1 + rng.below(5000) : 0;
    const auto c = rng.below(3);
    as.cooldown_us = c == 0 ? std::numeric_limits<std::uint64_t>::max()
                            : rng.below(10'000);
    if (rng.below(2) == 0) as.up_preempt_per_s = rng.uniform(0.1, 1e4);
    if (rng.below(2) == 0) as.up_slo_miss_rate = rng.uniform(0.001, 0.5);
  }
  const int pool =
      f.autoscale.enabled() ? std::min(sh.num_gpus, f.autoscale.max_replicas)
                            : sh.num_gpus;
  if (rng.below(2) == 0) fl.degrade_below_live = pick(rng, 1, pool);

  s.tables = draw_tables(rng, models, sh.max_batch, 1.0);
  s.fallback_tables = draw_tables(rng, models, sh.max_batch, 0.5);
  s.swap.cache_models = pick(rng, 1, 3);
  s.swap.warm_swap_us = rng.below(300);
  return s;
}

std::vector<std::string> names(int n) {
  std::vector<std::string> out;
  for (int m = 0; m < n; ++m) out.push_back("m" + std::to_string(m));
  return out;
}

// Every counter and ratio of one fleet run, bit for bit, in a string.
void append(std::string& out, const ServeMetrics& m) {
  for (const std::uint64_t v :
       {m.offered, m.completed, m.dropped, m.batches, m.batch_failures,
        m.retries, m.requeued, m.shed, m.failovers, m.max_queue_depth,
        m.p50_us, m.p90_us, m.p95_us, m.p99_us, m.max_us, m.within_slo,
        m.busy_us, m.replica_time_us, m.depth_integral_us, m.end_us})
    out += std::to_string(v) + ",";
  for (const double v :
       {m.degraded_s, m.mean_batch_size, m.duration_s, m.throughput_rps,
        m.goodput_rps, m.drop_rate, m.utilization, m.mean_queue_depth}) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    out += std::to_string(bits) + ",";
  }
}

std::string digest(const FleetSchedMetrics& r) {
  std::string out;
  append(out, r.total.total);
  for (const auto& m : r.total.per_class) append(out, m);
  for (const auto& m : r.total.per_model) append(out, m);
  for (const auto& ps : r.per_shard) append(out, ps.total);
  for (const std::uint64_t v :
       {r.total.preemptions, r.total.model_swaps, r.total.cold_swaps,
        r.total.swap_us, r.scale_ups, r.scale_downs})
    out += std::to_string(v) + ",";
  return out;
}

// The counts a percentile mode cannot change.
std::vector<std::uint64_t> counts(const FleetSchedMetrics& r) {
  std::vector<std::uint64_t> out = {
      r.total.preemptions, r.total.model_swaps, r.total.cold_swaps,
      r.total.swap_us,     r.scale_ups,         r.scale_downs};
  std::vector<const ServeMetrics*> scopes = {&r.total.total};
  for (const auto& m : r.total.per_class) scopes.push_back(&m);
  for (const auto& m : r.total.per_model) scopes.push_back(&m);
  for (const auto* m : scopes)
    out.insert(out.end(), {m->offered, m->completed, m->dropped, m->shed,
                           m->batches, m->batch_failures, m->retries,
                           m->requeued, m->failovers, m->busy_us,
                           m->depth_integral_us, m->end_us});
  return out;
}

TEST(ServeFuzz, SeededScenariosConserveRerunAndAgreeAcrossPercentileModes) {
  int faulted = 0, shed = 0, scaled = 0, preempted = 0;
  for (std::uint64_t seed = 0; seed < kScenarios; ++seed) {
    const auto s = draw(seed);
    const std::string at = "scenario " + std::to_string(seed);
    ASSERT_NO_THROW(s.fleet.validate()) << at;
    const int models = s.workload.num_models;
    const ModelRegistry reg(names(models), s.tables, s.swap);
    const ModelRegistry fb(names(models), s.fallback_tables, s.swap);
    FleetSchedMetrics a, b;
    ASSERT_NO_THROW(a = simulate_fleet_sched(s.workload, reg, s.fleet, &fb))
        << at;
    const auto& t = a.total.total;
    EXPECT_EQ(t.offered, t.completed + t.dropped + t.shed) << at;
    for (const auto& c : a.total.per_class)
      EXPECT_EQ(c.offered, c.completed + c.dropped + c.shed) << at;

    ASSERT_NO_THROW(b = simulate_fleet_sched(s.workload, reg, s.fleet, &fb))
        << at;
    EXPECT_EQ(digest(a), digest(b)) << at;

    // The running-p99 scale trigger reads the percentile estimate, so it
    // is the one knob allowed to steer the two modes apart.
    if (s.fleet.autoscale.up_p99_us == 0) {
      auto other = s.fleet;
      other.percentiles = s.fleet.percentiles == PercentileMode::kExact
                              ? PercentileMode::kSketch
                              : PercentileMode::kExact;
      FleetSchedMetrics o;
      ASSERT_NO_THROW(o = simulate_fleet_sched(s.workload, reg, other, &fb))
          << at;
      EXPECT_EQ(counts(a), counts(o)) << at;
    }
    faulted += t.batch_failures > 0 || t.failovers > 0;
    shed += t.shed > 0;
    scaled += a.scale_ups + a.scale_downs > 0;
    preempted += a.total.preemptions > 0;
  }
  // The draws must keep reaching every path they claim to cover.
  EXPECT_GT(faulted, 0);
  EXPECT_GT(shed, 0);
  EXPECT_GT(scaled, 0);
  EXPECT_GT(preempted, 0);
}

// Runs one parser on `spec`: it must return a list that `check` accepts
// or throw CheckError, never another exception. Counts both outcomes.
template <typename Parse, typename Check>
void parse_or_reject(const std::string& spec, const Parse& parse,
                     const Check& check, int counts[2]) {
  try {
    check(parse(spec));
    ++counts[0];
  } catch (const CheckError&) {
    ++counts[1];
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw " << e.what() << " on '" << spec << "'";
  }
}

TEST(ServeFuzz, MutatedListSpecsParseOrThrowCheckError) {
  // Seeded byte flips, deletions, insertions of list tokens and
  // truncations of valid specs. Every list that comes back has one entry
  // per comma-separated item and meets its parser's contract: finite
  // values with the parser's sign rule, a finite positive fraction sum,
  // nonempty unique names.
  const std::string specs[] = {"100,250.5,4000", "0.25,0.75", "4,1",
                               "1e3,2.5e-2,7", "0,1,0.5",
                               "vit-tiny,cnn-small,vit-b"};
  const char* const tokens[] = {",", "-", "e", "inf", "nan"};
  enum { kNumber, kRate, kName, kWeight, kFraction, kParsers };
  int counts[kParsers][2] = {};
  Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string spec = specs[trial % std::size(specs)];
    for (std::int64_t edits = rng.range(1, 3); edits > 0 && !spec.empty();
         --edits) {
      const std::size_t at = rng.below(spec.size());
      switch (rng.below(5)) {
        case 0:
          spec[at] = static_cast<char>(spec[at] ^ (1 << rng.below(8)));
          break;
        case 1:
          spec.erase(at, rng.range(1, 4));
          break;
        case 2:
          spec.insert(at, tokens[rng.below(std::size(tokens))]);
          break;
        case 3:
          spec.insert(at, 1, static_cast<char>('0' + rng.below(10)));
          break;
        default:
          spec.resize(at);
      }
    }
    const auto entries = static_cast<std::size_t>(
        std::count(spec.begin(), spec.end(), ',') + 1);
    const auto numbers = [&](bool positive) {
      return [&, positive](const std::vector<double>& v) {
        EXPECT_EQ(v.size(), entries) << spec;
        for (const double x : v)
          EXPECT_TRUE(std::isfinite(x) && (positive ? x > 0.0 : x >= 0.0))
              << x << " from '" << spec << "'";
      };
    };
    parse_or_reject(
        spec,
        [](const std::string& s) {
          return parse_number_list(s, "number", /*require_positive=*/false);
        },
        numbers(false), counts[kNumber]);
    parse_or_reject(spec, parse_rate_list, numbers(true), counts[kRate]);
    parse_or_reject(spec, parse_weight_list, numbers(true), counts[kWeight]);
    parse_or_reject(
        spec,
        [](const std::string& s) { return parse_fraction_list(s, "share"); },
        [&](const std::vector<double>& v) {
          numbers(false)(v);
          double sum = 0.0;
          for (const double x : v) sum += x;
          EXPECT_TRUE(std::isfinite(sum) && sum > 0.0) << spec;
        },
        counts[kFraction]);
    parse_or_reject(
        spec,
        [](const std::string& s) { return parse_name_list(s, "model"); },
        [&](const std::vector<std::string>& v) {
          ASSERT_EQ(v.size(), entries) << spec;
          std::string joined;
          for (const auto& name : v) {
            EXPECT_FALSE(name.empty()) << spec;
            EXPECT_EQ(std::count(v.begin(), v.end(), name), 1) << spec;
            joined += (joined.empty() ? "" : ",") + name;
          }
          EXPECT_EQ(joined, spec);
        },
        counts[kName]);
  }
  for (int p = 0; p < kParsers; ++p) {
    EXPECT_GT(counts[p][0], 0) << "parser " << p << " accepted nothing";
    EXPECT_GT(counts[p][1], 0) << "parser " << p << " rejected nothing";
  }
}

}  // namespace
}  // namespace vitbit::serve
