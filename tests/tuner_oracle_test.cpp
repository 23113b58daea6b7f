// Pruned vs exhaustive tuning. core::time_inferences simulates a key's
// candidates in increasing lower-bound order and skips those whose bound
// exceeds the key's best total. This test rebuilds the exhaustive answer
// from public functions only: every gemm_candidates / elementwise_candidates
// plan of every distinct CallKey through trace::build_*_kernel and
// sim::launch_kernel, argmin by (total cycles, candidate order). Every
// KernelTiming field must match it, for every strategy at pack 2 and 4, on
// ViT-Tiny and on seeded GEMM shapes, alone and in one multi-job call.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/energy_model.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/vit_model.h"
#include "trace/elementwise_traces.h"
#include "trace/gemm_traces.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

const arch::OrinSpec kSpec;
const arch::Calibration& kCalib = arch::default_calibration();

using GemmLaunchKey = std::tuple<int, int, int, int, trace::GemmBlockPlan>;

// The tuner's candidate plans for `job`'s GEMMs and for its elementwise
// `call`, in candidate order.
std::vector<trace::GemmBlockPlan> gemm_plans(const core::InferenceJob& job) {
  return core::gemm_candidates(job.strategy, job.config, kCalib);
}
std::vector<trace::ElementwisePlan> ew_plans(const core::InferenceJob& job,
                                             const nn::KernelCall& call) {
  return core::elementwise_candidates(job.strategy, call, job.config, kCalib);
}

// Every candidate launch of every job, each distinct one simulated once.
class ExhaustiveTuner {
 public:
  ExhaustiveTuner(const std::vector<core::InferenceJob>& jobs,
                  ThreadPool& pool) {
    for (const auto& job : jobs)
      for (const auto& call : job.log->calls()) {
        if (call.kind == nn::KernelKind::kGemm) {
          for (const auto& plan : gemm_plans(job))
            gemm_.emplace(gemm_key(call, plan), sim::LaunchResult{});
        } else {
          for (const auto& plan : ew_plans(job, call))
            elementwise_.emplace(plan, sim::LaunchResult{});
        }
      }
    std::vector<sim::LaunchResult*> out;
    std::vector<std::function<sim::KernelSpec()>> build;
    for (auto& [key, result] : gemm_) {
      out.push_back(&result);
      build.push_back([&key] {
        const auto& [m, k, n, batch, plan] = key;
        return trace::build_gemm_kernel({m, k, n, batch}, plan, kSpec, kCalib);
      });
    }
    for (auto& [plan, result] : elementwise_) {
      out.push_back(&result);
      build.push_back([&plan] {
        return trace::build_elementwise_kernel(plan, kSpec, kCalib);
      });
    }
    pool.run(out.size(), [&](std::size_t i) {
      *out[i] = sim::launch_kernel(build[i](), kSpec, kCalib);
    });
  }

  // The exhaustive winner for `call` under `job`: the first candidate with
  // the fewest total cycles.
  const sim::LaunchResult& best(const core::InferenceJob& job,
                                const nn::KernelCall& call) const {
    std::vector<const sim::LaunchResult*> launches;
    if (call.kind == nn::KernelKind::kGemm) {
      for (const auto& plan : gemm_plans(job))
        launches.push_back(&gemm_.at(gemm_key(call, plan)));
    } else {
      for (const auto& plan : ew_plans(job, call))
        launches.push_back(&elementwise_.at(plan));
    }
    const sim::LaunchResult* winner = launches.front();
    for (const auto* r : launches)
      if (r->total_cycles < winner->total_cycles) winner = r;
    return *winner;
  }

 private:
  static GemmLaunchKey gemm_key(const nn::KernelCall& call,
                                const trace::GemmBlockPlan& plan) {
    return {call.m, call.k, call.n, call.batch, plan};
  }

  std::map<GemmLaunchKey, sim::LaunchResult> gemm_;
  std::map<trace::ElementwisePlan, sim::LaunchResult> elementwise_;
};

// Every KernelTiming field of `got` against the exhaustive winner, derived
// the way the pipeline documents them.
void expect_exhaustive(const core::InferenceJob& job,
                       const core::InferenceTiming& got,
                       const ExhaustiveTuner& oracle) {
  const auto& calls = job.log->calls();
  ASSERT_EQ(got.strategy, job.strategy);
  ASSERT_EQ(got.kernels.size(), calls.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE(calls[i].name);
    const sim::LaunchResult& r = oracle.best(job, calls[i]);
    const core::KernelTiming& t = got.kernels[i];
    const arch::EnergyModel energy;
    const double dram_nj =
        energy.dram_nj_per_byte * static_cast<double>(r.sm.dram_bytes);
    const double dyn_nj =
        (energy.sm_dynamic_nj(r.sm) + dram_nj) * r.grid_scale();
    const double stat_nj =
        energy.static_nj(kSpec, static_cast<double>(r.total_cycles));
    const int units = kSpec.subcores_per_sm;
    EXPECT_EQ(t.name, calls[i].name);
    EXPECT_EQ(t.kind, calls[i].kind);
    EXPECT_EQ(t.cycles, r.total_cycles);
    EXPECT_EQ(t.instructions, r.grid_instructions);
    EXPECT_EQ(t.ipc, r.sm.ipc());
    EXPECT_EQ(t.int_util, r.sm.utilization(sim::ExecUnit::kIntPipe, units));
    EXPECT_EQ(t.fp_util, r.sm.utilization(sim::ExecUnit::kFpPipe, units));
    EXPECT_EQ(t.tc_util, r.sm.utilization(sim::ExecUnit::kTensor, units));
    EXPECT_EQ(t.energy_mj, (dyn_nj + stat_nj) * 1e-6);
    EXPECT_TRUE(t.sm == r.sm);
    total += r.total_cycles;
  }
  EXPECT_EQ(got.total_cycles, total);
}

// A log of GEMMs at seeded shapes (the generator of slice_exactness_test,
// with K kept short so the exhaustive sweep stays cheap).
nn::KernelLog seeded_gemm_log() {
  Rng rng(20240917);
  const int ks[] = {32, 96, 200};
  nn::KernelLog log;
  for (int i = 0; i < 4; ++i) {
    nn::KernelCall call;
    call.name = "gemm" + std::to_string(i);
    call.m = static_cast<int>(rng.range(1, 600));
    call.k = ks[rng.below(std::size(ks))];
    call.n = static_cast<int>(rng.range(1, 3200));
    call.batch = static_cast<int>(rng.range(1, 4));
    log.add(call);
  }
  return log;
}

// Every strategy at pack 2 and 4 over `log`, auto-tune on, appended to
// `jobs`.
void add_jobs(const nn::KernelLog& log, std::vector<core::InferenceJob>& jobs) {
  for (const int pack : {2, 4}) {
    core::StrategyConfig cfg;
    cfg.pack_factor = pack;
    for (const auto& job :
         core::strategy_jobs(log, core::all_strategies(), cfg))
      jobs.push_back(job);
  }
}

// One test, so ctest's per-test processes build the exhaustive answer once.
TEST(TunerOracle, PrunedMatchesExhaustiveAloneAndInOneCall) {
  ThreadPool pool(4);
  const nn::KernelLog tiny = nn::build_kernel_log(nn::vit_tiny());
  const nn::KernelLog seeded = seeded_gemm_log();
  std::vector<core::InferenceJob> jobs;
  add_jobs(tiny, jobs);
  add_jobs(seeded, jobs);
  ASSERT_EQ(jobs.size(), 28u);
  const ExhaustiveTuner oracle(jobs, pool);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SCOPED_TRACE("alone, job " + std::to_string(j));
    const auto alone = core::time_inferences({jobs[j]}, kSpec, kCalib, &pool);
    expect_exhaustive(jobs[j], alone.front(), oracle);
  }
  const auto timings = core::time_inferences(jobs, kSpec, kCalib, &pool);
  ASSERT_EQ(timings.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SCOPED_TRACE("one call, job " + std::to_string(j));
    expect_exhaustive(jobs[j], timings[j], oracle);
  }
}

}  // namespace
}  // namespace vitbit
