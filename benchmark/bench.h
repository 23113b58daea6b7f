// Shared pieces of the repository benchmark: the workload interface the
// runner (main.cpp) drives, the metric list it prints, the output checker
// behind benchmark/expected/, and the inputs of the traced replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "json_lite.h"
#include "nn/kernel_log.h"
#include "report/run_report.h"
#include "spans.h"
#include "tensor/matrix.h"
#include "vitbit/pipeline.h"
#include "vitbit/strategy.h"

namespace bench {

using vitbit::MatrixF32;
using vitbit::MatrixI32;
namespace arch = vitbit::arch;
namespace core = vitbit::core;
namespace nn = vitbit::nn;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Metrics in the order they were added; a name is added once.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// Output checks. Exact values come from benchmark/expected/<workload>.json;
// an empty map skips them (the run's seed has no recorded values).
// Invariants hold at every seed. In write mode each value is recorded for
// --write-expected instead of compared.
class Checker {
 public:
  Checker(FlatMap expected, bool write)
      : expected_(std::move(expected)), write_(write) {}

  // One output value as a JSON token (see FlatMap). False on a mismatch,
  // or when the expected values lack the key.
  bool value(const std::string& key, const std::string& token);
  bool value(const std::string& key, std::uint64_t v) {
    return value(key, std::to_string(v));
  }
  bool require(bool ok, const std::string& what);

  const std::vector<std::string>& failures() const { return failures_; }
  const FlatMap& recorded() const { return recorded_; }

 private:
  FlatMap expected_;
  bool write_ = false;
  FlatMap recorded_;
  std::vector<std::string> failures_;
};

struct RunContext {
  std::uint64_t seed = 1;
  bool smoke = false;  // each workload shrunk to well under 2 s
  vitbit::ThreadPool* pool = nullptr;
  arch::OrinSpec spec;
  const arch::Calibration* calib = nullptr;
};

// One kernel log a workload times, rebuilt by the replay through `build`.
struct KernelLogUse {
  std::string label;
  std::function<nn::KernelLog()> build;
  std::vector<core::Strategy> strategies;
  std::vector<core::StrategyConfig> configs;
};

// A functional GEMM's operands, C = A (MxK) * B (KxN).
struct GemmOperands {
  MatrixI32 a;
  MatrixI32 b;
};

// What the traced replay (replay.cpp) works on.
struct ReplayInputs {
  std::vector<KernelLogUse> logs;
  // Captured operands; when empty the replay generates seeded operands at
  // the logs' GEMM shapes.
  std::vector<GemmOperands> gemms;
  // The run's own results, round-tripped through the report layer.
  vitbit::report::RunReport report;
};

// What the runner measured, handed to Workload::add_metrics.
struct RunSummary {
  bool traced = false;
  int threads = 1;
  double ops_per_s = 0.0;
  double round_s = 0.0;        // median wall of one round of ops
  std::vector<double> op_s;    // per op, of the last round run
  std::vector<Span> spans;     // traced runs only
  std::vector<double> self_s;  // indexed like spans
};

// Sum of the durations of spans named `name` (and labelled `label`, when
// given).
double span_seconds(const RunSummary& run, const std::string& name,
                    const std::string& label = {});

// The first line of an exception's message (CheckError appends context).
std::string first_line(const std::exception& e);

// Distinct CallKeys of a log under one strategy: the simulations one
// time_inference call runs before auto-tuning fans them out.
std::size_t distinct_call_keys(const nn::KernelLog& log);

// One benchmark workload: a closed loop of fresh calls into one layer's
// public API, one client, all inputs generated from the seed.
class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs, then runs one small untimed warm-up op of the
  // workload's own kind. Counted in setup_s.
  virtual void setup() = 0;

  // Ops of one round, indexed in the order they run.
  virtual std::size_t num_ops() const = 0;
  // Ops of a round run concurrently over the pool.
  virtual bool parallel_ops() const { return false; }
  // The layer and public call each op's span is named after.
  virtual const char* op_layer() const = 0;
  virtual const char* op_call() const = 0;
  virtual std::string op_label(std::size_t i) const = 0;
  // One fresh call into the library; throws on library errors.
  virtual void run_op(std::size_t i) = 0;
  // Output checks of op i, after its round; false on a failure.
  virtual bool check_op(std::size_t i, Checker& check) = 0;
  // Invariants across one round; returns the ops that break them.
  virtual std::vector<std::size_t> check_round(Checker& /*check*/) {
    return {};
  }
  // Whether the recorded exact values hold only at the recorded seed.
  virtual bool seed_dependent() const = 0;

  // Workload-specific metrics beyond the shared ones.
  virtual void add_metrics(const RunSummary& run, Metrics& out) const = 0;
  virtual ReplayInputs replay_inputs() const = 0;
};

std::vector<std::string> workload_names();
// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& ctx);

// Fisher-Yates shuffle driven by the workload seed.
template <typename T>
void permute(std::vector<T>& items, std::uint64_t seed) {
  vitbit::Rng rng(seed);
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.below(i)]);
}

}  // namespace bench
