// Tests for the observability subsystem (report/): JSON round-trip,
// run-report serialization, and the tolerance-based baseline gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/table.h"
#include "nn/vit_model.h"
#include "report/baseline.h"
#include "report/json.h"
#include "report/run_report.h"
#include "vitbit/pipeline.h"

namespace vitbit::report {
namespace {

// ---- Json ----

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("null"), Json());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersStayExactBeyondDoublePrecision) {
  // 2^53 + 1 is not representable as a double; cycle counters must not
  // silently lose bits through the writer or the parser.
  const std::int64_t big = (std::int64_t{1} << 53) + 1;
  const Json v(big);
  EXPECT_EQ(Json::parse(v.dump()).as_int(), big);
}

TEST(Json, DoubleRoundTripsThroughMaxDigits) {
  const double v = 0.37213076923076921;
  EXPECT_DOUBLE_EQ(Json::parse(Json(v).dump()).as_double(), v);
  // A double that happens to be integral must parse back as a double.
  EXPECT_EQ(Json::parse(Json(3.0).dump()).type(), Json::Type::kDouble);
}

TEST(Json, StringEscapes) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  EXPECT_EQ(Json::parse(Json(raw).dump()).as_string(), raw);
}

TEST(Json, NestedDocumentRoundTrip) {
  Json doc = Json::object();
  doc.set("name", Json("run"));
  doc.set("ok", Json(true));
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push_back(Json(std::int64_t{1}));
  arr.push_back(Json(2.5));
  Json inner = Json::object();
  inner.set("k", Json("v"));
  arr.push_back(std::move(inner));
  doc.set("items", std::move(arr));
  for (const int indent : {0, 2, 4})
    EXPECT_EQ(Json::parse(doc.dump(indent)), doc);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json doc = Json::object();
  doc.set("zebra", Json(1));
  doc.set("alpha", Json(2));
  EXPECT_EQ(doc.items()[0].first, "zebra");
  EXPECT_EQ(doc.items()[1].first, "alpha");
  // set() on an existing key replaces in place, keeping the position.
  doc.set("zebra", Json(3));
  EXPECT_EQ(doc.items()[0].first, "zebra");
  EXPECT_EQ(doc.int_at("zebra"), 3);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), CheckError);
  EXPECT_THROW(Json::parse("{"), CheckError);
  EXPECT_THROW(Json::parse("tru"), CheckError);
  EXPECT_THROW(Json::parse("1 2"), CheckError);          // trailing garbage
  EXPECT_THROW(Json::parse("[1,]"), CheckError);         // trailing comma
  EXPECT_THROW(Json::parse("\"unterminated"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), CheckError);  // dup key
  EXPECT_THROW(Json::parse("01x"), CheckError);
}

// Parses `text`, which must fail; returns the CheckError message.
std::string parse_error(const std::string& text) {
  try {
    Json::parse(text);
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "parsed: " << text.substr(0, 40);
  return "";
}

TEST(Json, DeepNestingIsAParseErrorNotACrash) {
  EXPECT_NO_THROW(Json::parse(std::string(100, '[') + std::string(100, ']')));
  constexpr int kDeep = 100000;
  std::string objects;
  for (int i = 0; i < kDeep; ++i) objects += "{\"a\":";
  for (const std::string& text : {std::string(kDeep, '['), objects}) {
    const std::string msg = parse_error(text);
    EXPECT_NE(msg.find("JSON parse error: nesting deeper than"),
              std::string::npos)
        << msg;
  }
}

TEST(Json, EveryFiniteDoubleRoundTripsAndOverflowIsAParseError) {
  for (const double v : {5e-324, 1e-310, -1e-310, DBL_MAX, -DBL_MAX}) {
    const Json back = Json::parse(Json(v).dump());
    EXPECT_EQ(back.type(), Json::Type::kDouble);
    EXPECT_EQ(back.as_double(), v);
  }
  EXPECT_EQ(Json::parse("1e-400").as_double(), 0.0);  // rounds to zero
  for (const char* text : {"1e999", "-1e999", "[0, 1e999]"}) {
    const std::string msg = parse_error(text);
    EXPECT_NE(msg.find("JSON parse error: number out of range at offset"),
              std::string::npos)
        << msg;
  }
}

TEST(Json, TypeConfusionThrows) {
  EXPECT_THROW(Json(1.5).as_int(), CheckError);
  EXPECT_THROW(Json("s").as_double(), CheckError);
  EXPECT_THROW(Json(std::int64_t{-1}).as_uint(), CheckError);
  EXPECT_THROW(Json::object().push_back(Json()), CheckError);
  EXPECT_THROW(Json::array().at("k"), CheckError);
  EXPECT_THROW(Json::object().at("absent"), CheckError);
}

TEST(Json, TableToJson) {
  Table t("demo");
  t.header({"name", "cycles"});
  t.row().cell("k1").cell(std::uint64_t{123});
  t.row().cell("k2").cell(std::uint64_t{456});
  const Json j = table_to_json(t);
  EXPECT_EQ(j.string_at("title"), "demo");
  EXPECT_EQ(j.at("columns").size(), 2u);
  ASSERT_EQ(j.at("rows").size(), 2u);
  EXPECT_EQ(j.at("rows")[0].string_at("name"), "k1");
  EXPECT_EQ(j.at("rows")[1].string_at("cycles"), "456");
}

// ---- RunReport ----

// A small fully-populated report for round-trip and baseline tests.
RunReport sample_report() {
  RunReport rep;
  rep.tool = "report_test";
  rep.meta = {{"model", "vit"}, {"layers", "2"}, {"compiler", "testc 1.0"}};
  rep.host_wall_seconds = 1.2345678901234567;
  rep.threads = 4;
  StrategyReport s;
  s.strategy = "VitBit";
  s.total_cycles = 1000;
  s.gemm_cycles = 700;
  s.cuda_cycles = 300;
  s.total_instructions = 5000;
  s.total_ms = 0.5;
  s.total_energy_mj = 1.25;
  s.mean_ipc = 2.0;
  KernelReport k;
  k.name = "layer0.fc1";
  k.kind = "gemm";
  k.cycles = 700;
  k.instructions = 4000;
  k.ipc = 2.5;
  k.int_util = 0.5;
  k.fp_util = 0.25;
  k.tc_util = 0.9;
  k.energy_mj = 1.0;
  k.sm.cycles = 700;
  k.sm.instructions_issued = 1750;
  k.sm.dram_bytes = 4096;
  k.sm.ipc = 2.5;
  k.sm.issued_by_opcode = {{"IMAD", 1000}, {"IMMA", 500}, {"LDS", 250}};
  k.sm.unit_busy_cycles = {{"int", 400}, {"tensor", 600}};
  s.kernels.push_back(std::move(k));
  rep.strategies.push_back(std::move(s));
  L2Report g;
  g.name = "gemm_tc";
  g.cycles = 2000;
  g.l2_hits = 900;
  g.l2_misses = 100;
  g.l2_hit_rate = 0.9;
  g.total.cycles = 2000;
  g.total.instructions_issued = 3000;
  g.total.ipc = 1.5;
  rep.l2_runs.push_back(std::move(g));
  ServePointReport sp;
  sp.strategy = "VitBit";
  sp.policy = "timeout";
  sp.arrival = "poisson";
  sp.rate_rps = 400;
  sp.offered = 800;
  sp.completed = 780;
  sp.dropped = 20;
  sp.batches = 100;
  sp.mean_batch_size = 7.8;
  sp.drop_rate = 0.025;
  sp.throughput_rps = 390.0;
  sp.goodput_rps = 380.0;
  sp.utilization = 0.85;
  sp.mean_queue_depth = 3.5;
  sp.max_queue_depth = 12;
  sp.p50_us = 9000;
  sp.p90_us = 15000;
  sp.p95_us = 18000;
  sp.p99_us = 24000;
  rep.serve_points.push_back(std::move(sp));
  GemmPointReport gp;
  gp.name = "layer0.fc1";
  gp.dtype = "int32";
  gp.engine = "simd";
  gp.simd_level = "avx2";
  gp.m = 197;
  gp.k = 768;
  gp.n = 3072;
  gp.repeats = 2;
  gp.gflops = 18.0;
  gp.ref_gflops = 0.25;
  gp.speedup = 72.0;
  gp.max_abs_diff = 0.0;
  gp.min_speedup = 6.0;
  rep.gemm_points.push_back(std::move(gp));
  FleetPointReport fp;
  fp.strategy = "VitBit";
  fp.route = "jsq";
  fp.policy = "timeout";
  fp.arrival = "poisson";
  fp.rate_rps = 4000;
  fp.offered = 1000;
  fp.completed = 990;
  fp.goodput_rps = 3900.0;
  fp.p99_us = 30000;
  fp.scale_ups = 2;
  fp.shard_util_max = 0.9;
  rep.fleet_points.push_back(std::move(fp));
  SchedPointReport sc;
  sc.mode = "cb-pre";
  sc.scope = "class";
  sc.group = "gold";
  sc.rate_rps = 400;
  sc.offered = 200;
  sc.completed = 190;
  sc.goodput_rps = 380.0;
  sc.p50_us = 7000;
  rep.sched_points.push_back(std::move(sc));
  FleetSchedPointReport fs;
  fs.mode = "cb-pre";
  fs.route = "warm";
  fs.scope = "all";
  fs.group = "all";
  fs.rate_rps = 400;
  fs.offered = 800;
  fs.completed = 760;
  fs.preemptions = 5;
  fs.cold_swaps = 3;
  fs.goodput_rps = 370.0;
  fs.shard_util_min = 0.4;
  rep.fleet_sched_points.push_back(std::move(fs));
  SimLoopPointReport sl;
  sl.name = "vitbit_fused";
  sl.cycles = 41844;
  sl.instructions = 90000;
  sl.repeats = 3;
  sl.ref_seconds = 0.02;
  sl.packed_seconds = 0.01;
  sl.speedup = 2.0;
  sl.stats_identical = true;
  sl.min_speedup = 0.5;
  rep.sim_loop_points.push_back(std::move(sl));
  return rep;
}

TEST(RunReport, MutatedDocumentsParseOrThrowCheckError) {
  // Seeded mutations of the serialized sample report, pretty and compact:
  // byte flips, deletions, insertions of random bytes or JSON tokens,
  // truncations and duplicated spans. Json::parse and run_report_from_json
  // must accept each or throw CheckError, never another exception.
  const Json doc = to_json(sample_report());
  const std::string docs[] = {doc.dump(2), doc.dump(0)};
  const char* const tokens[] = {"[", "]", "{", "}", "\"", ",", ":", "-", "0",
                                "e999", "e-400", "1e-310", "null",
                                "99999999999999999999", "\\u00"};
  Rng rng(2718);
  int loaded = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = docs[trial % 2];
    for (std::int64_t edits = rng.range(1, 3); edits > 0 && !text.empty();
         --edits) {
      const std::size_t at = rng.below(text.size());
      const std::size_t len = rng.range(1, 64);
      switch (rng.below(6)) {
        case 0:
          text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
          break;
        case 1:
          text.erase(at, len);
          break;
        case 2:
          text.insert(at, 1, static_cast<char>(rng.below(256)));
          break;
        case 3:
          text.insert(at, tokens[rng.below(std::size(tokens))]);
          break;
        case 4:
          text.resize(at);
          break;
        default:
          text.insert(rng.below(text.size() + 1), text.substr(at, len));
      }
    }
    try {
      run_report_from_json(Json::parse(text));
      ++loaded;
    } catch (const CheckError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " threw " << e.what() << " on "
                    << text;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(RunReport, JsonRoundTrip) {
  const RunReport rep = sample_report();
  const Json j = to_json(rep);
  EXPECT_EQ(j.int_at("schema_version"), kSchemaVersion);
  const RunReport back = run_report_from_json(Json::parse(j.dump()));
  // Equality via re-serialization: the document is the contract.
  EXPECT_EQ(to_json(back), j);
  const auto* s = find_point(back.strategies, "VitBit");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kernels[0].sm.issued_by_opcode.at("IMMA"), 500u);
  EXPECT_EQ(find_point(back.strategies, "absent"), nullptr);
}

TEST(RunReport, FileRoundTrip) {
  const RunReport rep = sample_report();
  const std::string path = ::testing::TempDir() + "report_roundtrip.json";
  save_report_file(path, rep);
  EXPECT_EQ(to_json(load_report_file(path)), to_json(rep));
}

TEST(RunReport, HostPerfFieldsRoundTrip) {
  const RunReport rep = sample_report();
  const RunReport back = run_report_from_json(Json::parse(to_json(rep).dump()));
  EXPECT_DOUBLE_EQ(back.host_wall_seconds, rep.host_wall_seconds);
  EXPECT_EQ(back.threads, 4);
}

// Copies `j`, leaving out the `skip`-th key, in document order, of the
// fixed-layout objects (every object but the meta and counter maps).
// `seen` counts those keys; `dropped` names the one left out.
Json copy_without(const Json& j, int skip, int& seen, std::string& dropped,
                  bool fixed_layout = true) {
  if (j.is_array()) {
    Json out = Json::array();
    for (std::size_t i = 0; i < j.size(); ++i)
      out.push_back(copy_without(j[i], skip, seen, dropped));
    return out;
  }
  if (!j.is_object()) return j;
  Json out = Json::object();
  for (const auto& [k, v] : j.items()) {
    if (fixed_layout && seen++ == skip) {
      dropped = k;
      continue;
    }
    const bool map =
        k == "meta" || k == "issued_by_opcode" || k == "unit_busy_cycles";
    out.set(k, copy_without(v, skip, seen, dropped, fixed_layout && !map));
  }
  return out;
}

TEST(RunReport, EveryKeyIsRequired) {
  // The sample holds one entry of every kind, so every key of the schema
  // occurs in it; the reader must reject the document without any one.
  const Json doc = to_json(sample_report());
  int keys = 0;
  for (int skip = 0;; ++skip) {
    int seen = 0;
    std::string dropped;
    const Json mutated = copy_without(doc, skip, seen, dropped);
    if (skip >= seen) {
      keys = seen;
      break;
    }
    EXPECT_THROW(run_report_from_json(mutated), CheckError)
        << "key #" << skip << " (" << dropped << ")";
  }
  EXPECT_GT(keys, 150);
  EXPECT_NO_THROW(run_report_from_json(doc));
}

TEST(RunReport, SchemaVersionMismatchRejected) {
  Json j = to_json(sample_report());
  j.set("schema_version", Json(kSchemaVersion + 1));
  EXPECT_THROW(run_report_from_json(j), CheckError);
}

TEST(RunReport, FromLiveSimulation) {
  // A real (tiny) pipeline run must serialize losslessly, with the opcode
  // counters present for a GEMM kernel.
  const arch::OrinSpec spec;
  const auto log = nn::build_kernel_log(nn::vit_tiny());
  const auto timing =
      core::time_inference(log, core::Strategy::kTC, core::StrategyConfig{},
                           spec, arch::default_calibration());
  const StrategyReport s = make_strategy_report(timing, spec);
  EXPECT_EQ(s.strategy, "TC");
  EXPECT_GT(s.total_cycles, 0u);
  ASSERT_FALSE(s.kernels.empty());
  EXPECT_FALSE(s.kernels[0].sm.issued_by_opcode.empty());
  RunReport rep;
  rep.tool = "report_test";
  rep.strategies.push_back(s);
  const RunReport back = run_report_from_json(to_json(rep));
  EXPECT_EQ(to_json(back), to_json(rep));
}

// ---- Baseline gate ----

TEST(Baseline, IdenticalReportsPass) {
  const RunReport rep = sample_report();
  const auto result = check_against_baseline(rep, rep, ToleranceSpec{});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.violations().empty());
  EXPECT_EQ(result.first_violation(), "");
  EXPECT_FALSE(result.deltas.empty());
}

TEST(Baseline, GatedMetricsArePinned) {
  // Every (metric, tolerance) pair the gate compares on the sample report,
  // which holds one point of every kind. A change to the gate's code must
  // leave this list as it is; a change to what it gates edits it here.
  const RunReport rep = sample_report();
  const auto result = check_against_baseline(rep, rep, ToleranceSpec{});
  std::vector<std::pair<std::string, double>> gated;
  for (const auto& d : result.deltas) gated.emplace_back(d.metric, d.tolerance);
  std::sort(gated.begin(), gated.end());
  const std::vector<std::pair<std::string, double>> pinned = {
      {"VitBit.cuda_cycles", 0.02},
      {"VitBit.gemm_cycles", 0.02},
      {"VitBit.kernel.layer0.fc1.cycles", 0.02},
      {"VitBit.kernel.layer0.fc1.ipc", 0.01},
      {"VitBit.mean_ipc", 0.01},
      {"VitBit.total_cycles", 0.02},
      {"VitBit.total_energy_mj", 0.05},
      {"VitBit.total_instructions", 0.0},
      {"fleet.VitBit.jsq.timeout.poisson@4000.completed", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.drop_rate", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.goodput_rps", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.offered", 0.0},
      {"fleet.VitBit.jsq.timeout.poisson@4000.p50_us", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.p99_us", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.scale_downs", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.scale_ups", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.shard_util_max", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.shard_util_min", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.shed", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.throughput_rps", 0.05},
      {"fleet.VitBit.jsq.timeout.poisson@4000.utilization", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.cold_swaps", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.completed", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.drop_rate", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.goodput_rps", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.model_swaps", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.offered", 0.0},
      {"fleet_sched.cb-pre.warm.all.all@400.p50_us", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.p99_us", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.preemptions", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.scale_downs", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.scale_ups", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.shard_util_max", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.shard_util_min", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.throughput_rps", 0.05},
      {"fleet_sched.cb-pre.warm.all.all@400.utilization", 0.05},
      {"gemm.layer0.fc1.int32.simd.k", 0.0},
      {"gemm.layer0.fc1.int32.simd.m", 0.0},
      {"gemm.layer0.fc1.int32.simd.max_abs_diff", 0.0},
      {"gemm.layer0.fc1.int32.simd.n", 0.0},
      {"gemm.layer0.fc1.int32.simd.repeats", 0.0},
      {"gemm.layer0.fc1.int32.simd.speedup", 0.0},
      {"l2.gemm_tc.cycles", 0.02},
      {"l2.gemm_tc.hit_rate", 0.01},
      {"sched.cb-pre.class.gold@400.completed", 0.05},
      {"sched.cb-pre.class.gold@400.drop_rate", 0.05},
      {"sched.cb-pre.class.gold@400.goodput_rps", 0.05},
      {"sched.cb-pre.class.gold@400.model_swaps", 0.05},
      {"sched.cb-pre.class.gold@400.offered", 0.0},
      {"sched.cb-pre.class.gold@400.p50_us", 0.05},
      {"sched.cb-pre.class.gold@400.p99_us", 0.05},
      {"sched.cb-pre.class.gold@400.preemptions", 0.05},
      {"sched.cb-pre.class.gold@400.throughput_rps", 0.05},
      {"sched.cb-pre.class.gold@400.utilization", 0.05},
      {"serve.VitBit.timeout.poisson@400.batch_failures", 0.05},
      {"serve.VitBit.timeout.poisson@400.completed", 0.05},
      {"serve.VitBit.timeout.poisson@400.degraded_s", 0.05},
      {"serve.VitBit.timeout.poisson@400.drop_rate", 0.05},
      {"serve.VitBit.timeout.poisson@400.failovers", 0.05},
      {"serve.VitBit.timeout.poisson@400.goodput_rps", 0.05},
      {"serve.VitBit.timeout.poisson@400.offered", 0.0},
      {"serve.VitBit.timeout.poisson@400.p50_us", 0.05},
      {"serve.VitBit.timeout.poisson@400.p99_us", 0.05},
      {"serve.VitBit.timeout.poisson@400.requeued", 0.05},
      {"serve.VitBit.timeout.poisson@400.retries", 0.05},
      {"serve.VitBit.timeout.poisson@400.shed", 0.05},
      {"serve.VitBit.timeout.poisson@400.throughput_rps", 0.05},
      {"serve.VitBit.timeout.poisson@400.utilization", 0.05},
      {"sim_loop.vitbit_fused.cycles", 0.0},
      {"sim_loop.vitbit_fused.instructions", 0.0},
      {"sim_loop.vitbit_fused.repeats", 0.0},
      {"sim_loop.vitbit_fused.speedup", 0.0},
      {"sim_loop.vitbit_fused.stats_identical", 0.0},
  };
  EXPECT_EQ(gated, pinned);
}

TEST(Baseline, ExactlyAtThresholdPasses) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  // 2% of 1000 = 20: rel delta == tolerance, which must NOT violate.
  fresh.strategies[0].total_cycles = 1020;
  ToleranceSpec tol;
  tol.cycles = 0.02;
  const auto result = check_against_baseline(fresh, base, tol);
  for (const auto& d : result.deltas)
    if (d.metric == "VitBit.total_cycles") {
      EXPECT_DOUBLE_EQ(d.rel_delta, 0.02);
      EXPECT_FALSE(d.violated);
    }
  EXPECT_TRUE(result.ok());
}

TEST(Baseline, JustOverThresholdFails) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.strategies[0].total_cycles = 1021;  // 2.1% > 2%
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_violation(), "VitBit.total_cycles");
}

TEST(Baseline, ImprovementAlsoTripsTheGate) {
  // Faster-than-baseline drift flags too, so baselines get re-anchored and
  // the perf trajectory stays recorded.
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.strategies[0].total_cycles = 900;
  EXPECT_FALSE(check_against_baseline(fresh, base, ToleranceSpec{}).ok());
}

TEST(Baseline, IpcToleranceIsTighter) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.strategies[0].mean_ipc = 2.0 * 1.015;  // 1.5% > 1%
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_violation(), "VitBit.mean_ipc");
}

TEST(Baseline, MissingStrategyIsViolation) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.strategies.clear();
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_FALSE(result.ok());
  const auto v = result.violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].metric, "VitBit.total_cycles");
  EXPECT_EQ(v[0].note, "missing from fresh report");
}

TEST(Baseline, MissingKernelIsViolation) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.strategies[0].kernels[0].name = "layer0.renamed";
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_violation(), "VitBit.kernel.layer0.fc1.cycles");
}

TEST(Baseline, NewKernelNameIsNotedNotFailed) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  KernelReport extra = base.strategies[0].kernels[0];
  extra.name = "layer0.new_fused";
  fresh.strategies[0].kernels.push_back(std::move(extra));
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_TRUE(result.ok());
  bool noted = false;
  for (const auto& d : result.deltas)
    if (d.metric == "VitBit.kernel.layer0.new_fused.cycles") {
      EXPECT_FALSE(d.violated);
      EXPECT_FALSE(d.note.empty());
      noted = true;
    }
  EXPECT_TRUE(noted);
}

TEST(Baseline, WorkloadMetaMismatchFails) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.meta["layers"] = "12";
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_violation(), "meta.layers");
}

TEST(Baseline, HostPerfFieldsNeverGate) {
  // host_wall_seconds / threads are machine-dependent; wildly different
  // values must not trip the gate (only simulated metrics are compared).
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.host_wall_seconds = 1000.0 * base.host_wall_seconds + 7.0;
  fresh.threads = 64;
  EXPECT_TRUE(check_against_baseline(fresh, base, ToleranceSpec{}).ok());
}

TEST(Baseline, ToolchainMetaIsInformational) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.meta["compiler"] = "otherc 2.0";  // must not gate
  EXPECT_TRUE(check_against_baseline(fresh, base, ToleranceSpec{}).ok());
}

TEST(Baseline, L2MetricsAreChecked) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.l2_runs[0].l2_hit_rate = 0.8;  // 11% drift > 1%
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_violation(), "l2.gemm_tc.hit_rate");
}

TEST(Baseline, RenderNamesTheOffendingMetric) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.strategies[0].total_cycles = 2000;
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  std::ostringstream os;
  result.render(os, /*violations_only=*/true);
  EXPECT_NE(os.str().find("VitBit.total_cycles"), std::string::npos);
  EXPECT_NE(os.str().find("FAIL"), std::string::npos);
  // The full table includes passing rows too.
  std::ostringstream all;
  result.render(all, /*violations_only=*/false);
  EXPECT_NE(all.str().find("ok"), std::string::npos);
}

TEST(RunReport, ServePointsRoundTripAndLookup) {
  const RunReport rep = sample_report();
  const RunReport back = run_report_from_json(to_json(rep));
  EXPECT_EQ(to_json(back), to_json(rep));
  const auto* p = find_point(back.serve_points, "VitBit.timeout.poisson@400");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->completed, 780u);
  EXPECT_EQ(p->p99_us, 24000u);
  EXPECT_EQ(find_point(back.serve_points, "TC.timeout.poisson@400"), nullptr);
}

TEST(RunReport, GemmPointKeyIncludesEngine) {
  // The engine name is part of the gemm-point identity, so simd-none and
  // simd measurements of the same shape coexist in one report, and
  // simd_level survives the JSON round trip.
  const RunReport back = run_report_from_json(to_json(sample_report()));
  const auto& points = back.gemm_points;
  const auto* p = find_point(points, "layer0.fc1.int32.simd");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->simd_level, "avx2");
  EXPECT_EQ(p->min_speedup, 6.0);
  EXPECT_EQ(find_point(points, "layer0.fc1.int32.simd-none"), nullptr);
}

TEST(Baseline, ServeGoodputDriftTrips) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.serve_points[0].goodput_rps = 380.0 * 1.06;  // 6% > 5%
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_violation(),
            "serve.VitBit.timeout.poisson@400.goodput_rps");
}

TEST(Baseline, ServeOfferedCountIsExact) {
  // The offered count is the seeded workload's length — deterministic by
  // construction, so any drift at all is a violation.
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.serve_points[0].offered += 1;
  EXPECT_FALSE(check_against_baseline(fresh, base, ToleranceSpec{}).ok());
}

TEST(Baseline, MissingServePointIsViolation) {
  const RunReport base = sample_report();
  RunReport fresh = base;
  fresh.serve_points.clear();
  const auto result = check_against_baseline(fresh, base, ToleranceSpec{});
  EXPECT_FALSE(result.ok());
  const auto v = result.violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].note, "missing from fresh report");
}

TEST(Baseline, RelativeDeltaGuardsZeroBaseline) {
  EXPECT_EQ(relative_delta(0.0, 0.0), 0.0);
  EXPECT_GT(relative_delta(0.0, 1.0), 1.0);  // huge, trips any tolerance
  EXPECT_DOUBLE_EQ(relative_delta(100.0, 110.0), 0.1);
}

}  // namespace
}  // namespace vitbit::report
