// Runner of the repository benchmark (README.md describes the workloads):
//
//   vitbit_bench --workload=NAME [--seed=1] [--seconds=20] [--threads=4]
//                [--trace=0|1|PATH] [--smoke] [--write-expected]
//                [--manifest=BENCHMARK.json]
//                [--expected-dir=benchmark/expected]
//
// Each run sets the workload up five times (setup_s is the median), then
// runs whole rounds of its ops — a closed loop with one client — until
// the next round would pass --seconds. Every op's output is checked
// against benchmark/expected/<workload>.json and the workload's
// invariants. With --trace the run instead times one untraced round, then
// reruns it with spans on, replays the layers (replay.h), and reports
// per-layer metrics.
//
// Output: one "<workload> <metric> <value> <unit>" line per metric, then,
// as the last line, a JSON object {"correct", "attempted", "failed",
// "metrics"} whose metrics are exactly those BENCHMARK.json lists for the
// mode (end_to_end untraced, per_layer traced). Exit status 0 when every
// check passed, 1 when one failed, 2 on a usage or set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/cli.h"
#include "replay.h"

namespace bench {

namespace {

namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int threads = 4;
  std::string trace_path;  // empty: untraced run
  bool smoke = false;
  bool write_expected = false;
  std::string manifest = "BENCHMARK.json";
  std::string expected_dir = "benchmark/expected";
};

struct ManifestMetric {
  std::string name;
  std::string unit;
};

// The metric names and units BENCHMARK.json lists under `section`.
std::vector<ManifestMetric> manifest_metrics(const std::string& path,
                                             const std::string& section) {
  const JsonValue doc = read_json_file(path);
  const JsonValue* list = doc.get(section);
  if (list == nullptr || list->kind != JsonValue::Kind::kArray)
    throw std::runtime_error(path + ": no '" + section + "' list");
  std::vector<ManifestMetric> out;
  for (const auto& item : list->items) {
    const JsonValue* name = item.get("name");
    const JsonValue* unit = item.get("unit");
    if (name == nullptr || unit == nullptr)
      throw std::runtime_error(path + ": " + section +
                               " entry without name or unit");
    out.push_back({name->text, unit->text});
  }
  return out;
}

std::string executable_dir() {
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : exe.parent_path().string();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// The JSON "metrics" members: exactly the metrics the manifest lists, in
// its order, each with the manifest's unit.
std::string manifest_json(const Metrics& m,
                          const std::vector<ManifestMetric>& listed,
                          const std::string& manifest) {
  std::string out;
  for (const auto& want : listed) {
    const Metric* got = m.find(want.name);
    if (got == nullptr)
      throw std::runtime_error("metric " + want.name + " listed in " +
                               manifest + " was not measured");
    if (got->unit != want.unit)
      throw std::runtime_error("metric " + want.name + " has unit " +
                               got->unit + ", " + manifest + " says " +
                               want.unit);
    if (!std::isfinite(got->value))
      throw std::runtime_error("metric " + want.name + " is not finite");
    out += (out.empty() ? "" : ", ") + json_quote(want.name) +
           ": {\"value\": " + format_number(got->value) +
           ", \"unit\": " + json_quote(want.unit) + "}";
  }
  return out;
}

struct RoundResult {
  double start_us = 0.0;
  double wall_s = 0.0;
  std::vector<double> op_s;
  std::size_t failed = 0;
};

// Runs every op of one round, then checks their outputs. Only the ops
// themselves are inside the round's wall time.
RoundResult run_round(Workload& w, Checker& check, vitbit::ThreadPool& pool) {
  const std::size_t n = w.num_ops();
  RoundResult r;
  r.op_s.assign(n, 0.0);
  std::vector<std::string> errors(n);
  const auto one = [&](std::size_t i, std::uint64_t op) {
    const double t0 = now_us();
    try {
      const ScopedSpan span(w.op_layer(), w.op_call(), w.op_label(i), op);
      w.run_op(i);
    } catch (const std::exception& e) {
      errors[i] = w.op_label(i) + ": " + first_line(e);
    }
    r.op_s[i] = (now_us() - t0) * 1e-6;
  };
  r.start_us = now_us();
  if (w.parallel_ops()) {
    std::vector<std::uint64_t> ops(n);
    for (auto& op : ops) op = new_op_id();
    pool.run(n, [&](std::size_t i) { one(i, ops[i]); });
  } else {
    for (std::size_t i = 0; i < n; ++i) one(i, 0);
  }
  r.wall_s = (now_us() - r.start_us) * 1e-6;

  std::vector<bool> failed(n, false);
  for (std::size_t i = 0; i < n; ++i)
    failed[i] = !errors[i].empty() ? !check.require(false, errors[i])
                                   : !w.check_op(i, check);
  // Round invariants compare ops with each other; an op that threw has
  // no result to compare.
  if (std::all_of(errors.begin(), errors.end(),
                  [](const std::string& e) { return e.empty(); }))
    for (const std::size_t i : w.check_round(check)) failed[i] = true;
  r.failed = static_cast<std::size_t>(
      std::count(failed.begin(), failed.end(), true));
  return r;
}

Options parse_options(int argc, char** argv) {
  const vitbit::Cli cli(argc, argv);
  Options o;
  o.workload = cli.get("workload", "");
  const std::int64_t seed = cli.get_int("seed", 1);
  if (seed < 0) throw std::runtime_error("--seed must be >= 0");
  o.seed = static_cast<std::uint64_t>(seed);
  o.seconds = cli.get_double("seconds", o.seconds);
  if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  o.threads = cli.has("threads") ? cli.threads() : o.threads;
  o.smoke = cli.get_bool("smoke", false);
  o.write_expected = cli.get_bool("write-expected", false);
  o.manifest = cli.get("manifest", o.manifest);
  o.expected_dir = cli.get("expected-dir", o.expected_dir);
  const std::string trace = cli.get("trace", "0");
  if (trace == "1")
    o.trace_path = executable_dir() + "/trace-" + o.workload + ".json";
  else if (trace != "0" && fs::is_directory(trace))
    o.trace_path = trace + "/trace-" + o.workload + ".json";
  else if (trace != "0")
    o.trace_path = trace;
  if (const auto typos = cli.unused(); !typos.empty())
    throw std::runtime_error("unknown flag --" + typos.front());
  if (!cli.positional().empty())
    throw std::runtime_error("unexpected argument " + cli.positional()[0]);
  return o;
}

int run(const Options& opt) {
  const bool traced = !opt.trace_path.empty();
  const auto listed =
      manifest_metrics(opt.manifest, traced ? "per_layer" : "end_to_end");

  vitbit::ThreadPool pool(opt.threads);
  RunContext ctx;
  ctx.seed = opt.seed;
  ctx.smoke = opt.smoke;
  ctx.pool = &pool;
  ctx.calib = &arch::default_calibration();
  if (make_workload(opt.workload, ctx) == nullptr) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    throw std::runtime_error("unknown --workload '" + opt.workload +
                             "'; one of:" + names);
  }

  const std::string expected_path = opt.expected_dir + "/" + opt.workload +
                                    (opt.smoke ? ".smoke" : "") + ".json";
  FlatMap expected;
  if (!opt.write_expected) expected = read_flat_file(expected_path);
  const std::string recorded_seed =
      expected.count("seed") != 0 ? expected["seed"] : "";
  expected.erase("seed");

  // Set-up, repeated on fresh workload objects; the last one runs.
  set_tracing(traced);
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  const int setups = traced || opt.smoke ? 1 : 5;
  for (int k = 0; k < setups; ++k) {
    w = make_workload(opt.workload, ctx);
    const double t0 = now_us();
    w->setup();
    setup_s.push_back((now_us() - t0) * 1e-6);
  }
  if (w->seed_dependent() && recorded_seed != std::to_string(opt.seed))
    expected.clear();  // exact values exist only for the recorded seed
  Checker check(std::move(expected), opt.write_expected);

  const std::size_t n_ops = w->num_ops();
  RunSummary run;
  run.traced = traced;
  run.threads = opt.threads;
  std::size_t attempted = 0, failed = 0;
  Metrics m;
  if (!traced) {
    // The median round resists a burst of load from outside the process.
    std::vector<double> round_s;
    const double start = now_us();
    do {
      const RoundResult r = run_round(*w, check, pool);
      round_s.push_back(r.wall_s);
      attempted += n_ops;
      failed += r.failed;
      run.op_s = r.op_s;
    } while (!opt.smoke && (now_us() - start) * 1e-6 + median(round_s) <=
                               opt.seconds);
    run.round_s = median(round_s);
    run.ops_per_s = static_cast<double>(n_ops) / run.round_s;
    m.add("ops_per_s", run.ops_per_s, "ops/s");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("rounds", static_cast<double>(round_s.size()), "count");
    w->add_metrics(run, m);
  } else {
    set_tracing(false);
    const RoundResult plain = run_round(*w, check, pool);
    set_tracing(true);
    const RoundResult r = run_round(*w, check, pool);
    attempted += 2 * n_ops;
    failed += plain.failed + r.failed;
    run.round_s = r.wall_s;
    run.ops_per_s = static_cast<double>(n_ops) / r.wall_s;
    run.op_s = r.op_s;

    // The replay reads the rounds' results, which a failed op leaves
    // incomplete; such a run is incorrect anyway.
    if (failed == 0) {
      const std::size_t failures_before = check.failures().size();
      attempted += run_replay(w->replay_inputs(), ctx, executable_dir(), m,
                              check);
      failed += check.failures().size() - failures_before;
    }
    set_tracing(false);

    run.spans = collect_spans();
    run.self_s = self_seconds(run.spans);
    // The trace itself is checked too: a malformed span tree or a traced
    // round its root spans do not cover makes the run incorrect.
    const std::string tree = check_span_tree(run.spans, run.self_s);
    check.require(tree.empty(), "span tree: " + tree);
    const double coverage =
        root_coverage(run.spans, r.start_us, r.start_us + r.wall_s * 1e6);
    check.require(coverage >= 0.95, "root spans cover the traced round");
    std::vector<double> walls = r.op_s;
    std::sort(walls.begin(), walls.end());
    m.add("op.wall_p50_s", walls[walls.size() / 2], "s");
    m.add("op.wall_max_s", walls.back(), "s");
    for (const auto& [layer, s] : layer_self_seconds(run.spans, run.self_s))
      m.add("self_s." + layer, s, "s");
    m.add("bench.trace_overhead_pct", 100.0 * (r.wall_s / plain.wall_s - 1.0),
          "%");
    m.add("bench.root_coverage", coverage, "ratio");
    w->add_metrics(run, m);
    write_chrome_trace(opt.trace_path, run.spans);
    std::cerr << "trace written to " << opt.trace_path << "\n";
  }
  m.add("failed_frac",
        static_cast<double>(failed) / static_cast<double>(attempted),
        "ratio");

  if (opt.write_expected) {
    FlatMap values = check.recorded();
    if (w->seed_dependent()) values["seed"] = std::to_string(opt.seed);
    write_flat_file(expected_path, values);
    std::cerr << "wrote " << expected_path << "\n";
  }

  for (const auto& metric : m.all())
    std::cout << opt.workload << " " << metric.name << " "
              << format_number(metric.value) << " " << metric.unit << "\n";
  for (const auto& f : check.failures())
    std::cerr << "check failed: " << f << "\n";

  const std::string json_metrics = manifest_json(m, listed, opt.manifest);
  const bool correct = failed == 0 && check.failures().empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << json_metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace bench

int main(int argc, char** argv) {
  try {
    return bench::run(bench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "vitbit_bench: " << e.what() << "\n";
    return 2;
  }
}
