// Tier-1 determinism gate for the parallel execution engine: time_inference
// over every strategy must serialize to byte-identical run reports whether
// it runs serially, on a pool of 1, or on a pool of 4. This is the contract
// that lets check_regression compare any-thread-count runs against the
// checked-in baselines bit-for-bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "nn/vit_model.h"
#include "report/run_report.h"
#include "serve/models/registry.h"
#include "vitbit/pipeline.h"
#include "vitbit/tuner.h"

namespace vitbit {
namespace {

// ViT-Tiny: every kernel kind (GEMM + the elementwise family) appears, at a
// fraction of the full-model simulation cost, so the fused auto-tune and
// fp-fraction sweeps all execute under the pool.
nn::KernelLog tiny_log() { return nn::build_kernel_log(nn::vit_tiny()); }

// Serializes the full timing result — every per-kernel counter included —
// so any divergence shows up, not just headline cycles.
std::string report_string(const std::vector<core::InferenceTiming>& timings,
                          const arch::OrinSpec& spec) {
  report::RunReport rep;
  rep.tool = "determinism_test";
  for (const auto& t : timings)
    rep.strategies.push_back(report::make_strategy_report(t, spec));
  return report::to_json(rep).dump();
}

std::vector<core::InferenceTiming> run_all(const nn::KernelLog& log,
                                           const arch::OrinSpec& spec,
                                           ThreadPool* pool) {
  const auto& calib = arch::default_calibration();
  const core::StrategyConfig cfg;
  std::vector<core::InferenceTiming> out;
  for (const auto s : core::all_strategies())
    out.push_back(core::time_inference(log, s, cfg, spec, calib, pool));
  return out;
}

TEST(Determinism, TimeInferenceIdenticalAcrossThreadCounts) {
  const arch::OrinSpec spec;
  const auto log = tiny_log();

  const auto serial = report_string(run_all(log, spec, nullptr), spec);
  ThreadPool one(1);
  EXPECT_EQ(serial, report_string(run_all(log, spec, &one), spec));
  ThreadPool four(4);
  EXPECT_EQ(serial, report_string(run_all(log, spec, &four), spec));
}

TEST(Determinism, RepeatedParallelRunsAreStable) {
  const arch::OrinSpec spec;
  const auto log = tiny_log();
  ThreadPool pool(4);
  const auto first = report_string(run_all(log, spec, &pool), spec);
  const auto second = report_string(run_all(log, spec, &pool), spec);
  EXPECT_EQ(first, second);
}

void expect_same_timing(const core::InferenceTiming& a,
                        const core::InferenceTiming& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.gemm_cycles, b.gemm_cycles);
  EXPECT_EQ(a.cuda_cycles, b.cuda_cycles);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    const auto& x = a.kernels[i];
    const auto& y = b.kernels[i];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.cycles, y.cycles);
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.ipc, y.ipc);
    EXPECT_EQ(x.int_util, y.int_util);
    EXPECT_EQ(x.fp_util, y.fp_util);
    EXPECT_EQ(x.tc_util, y.tc_util);
    EXPECT_EQ(x.energy_mj, y.energy_mj);
    EXPECT_TRUE(x.sm == y.sm);
  }
}

// One time_inferences call over many jobs shares SM slices across them
// (the test zoo's models and batch sizes, and every strategy's tuner on
// one log); each job's result must still equal timing it alone, at every
// pool size.
TEST(Determinism, MultiJobTimeInferencesMatchesPerJob) {
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  const std::vector<std::string> zoo = {"vit-tiny", "vit-tiny-int4",
                                        "cnn-small", "mixer-tiny"};
  std::vector<nn::KernelLog> logs;
  std::vector<core::StrategyConfig> configs;
  for (const auto& name : zoo) {
    const auto entry = serve::zoo_entry(name);
    for (int batch = 1; batch <= 4; ++batch) {
      logs.push_back(entry.log_for_batch(batch));
      configs.push_back(entry.strategy_cfg);
    }
  }
  std::vector<core::InferenceJob> jobs;
  for (std::size_t i = 0; i < logs.size(); ++i)
    jobs.push_back({&logs[i], core::Strategy::kVitBit, configs[i]});
  const auto vit_tiny = tiny_log();
  const auto strategies = core::all_strategies();
  for (const auto& job : core::strategy_jobs(vit_tiny, strategies, {}))
    jobs.push_back(job);

  std::vector<core::InferenceTiming> alone;
  for (const auto& job : jobs)
    alone.push_back(core::time_inference(*job.log, job.strategy, job.config,
                                         spec, calib));
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const auto together = core::time_inferences(jobs, spec, calib, &pool);
    ASSERT_EQ(together.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      SCOPED_TRACE(j);
      expect_same_timing(together[j], alone[j]);
    }
  }
}

TEST(Determinism, TunerIdenticalAcrossThreadCounts) {
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  const trace::GemmShape shape{197, 768, 3072, 1};

  const auto serial = core::tune_strategy_config(shape, spec, calib, nullptr);
  ThreadPool four(4);
  const auto pooled = core::tune_strategy_config(shape, spec, calib, &four);
  EXPECT_EQ(serial.m_ratio, pooled.m_ratio);
  EXPECT_EQ(serial.fused_cuda_cols, pooled.fused_cuda_cols);
  EXPECT_EQ(serial.pack_factor, pooled.pack_factor);
}

}  // namespace
}  // namespace vitbit
