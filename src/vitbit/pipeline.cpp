#include "vitbit/pipeline.h"

#include <algorithm>
#include <compare>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "arch/energy_model.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "trace/elementwise_traces.h"
#include "trace/gemm_traces.h"

namespace vitbit::core {

namespace {

trace::GemmBlockPlan gemm_plan_for(Strategy s, const StrategyConfig& cfg,
                                   const arch::Calibration& calib) {
  switch (s) {
    case Strategy::kTC:
      return trace::plan_tc(calib);
    case Strategy::kIC:
      return trace::plan_ic(calib);
    case Strategy::kFC:
      return trace::plan_fc(calib);
    case Strategy::kICFC:
      return trace::plan_ic_fc(calib);
    case Strategy::kTacker:
      return trace::plan_tacker(calib, cfg.fused_cuda_cols);
    case Strategy::kTCICFC:
      return trace::plan_tc_ic_fc(calib, cfg.fused_cuda_cols);
    case Strategy::kVitBit:
      return trace::plan_vitbit(calib, cfg.fused_cuda_cols, cfg.pack_factor);
  }
  VITBIT_CHECK_MSG(false, "unknown strategy");
  return {};
}

trace::ElementwisePlan elementwise_plan_for(Strategy s,
                                            const nn::KernelCall& call,
                                            const StrategyConfig& cfg,
                                            const arch::Calibration& calib) {
  auto plan = trace::elementwise_plan(call.kind, call.elems, calib);
  switch (s) {
    case Strategy::kTC:
    case Strategy::kIC:
    case Strategy::kTacker:
    case Strategy::kTCICFC:
      // Table 3: only FC / IC+FC / VitBit change the CUDA-core kernels;
      // the "T" methods run the IC baseline there.
      break;
    case Strategy::kFC:
      plan.fp_fraction = 1.0;
      break;
    case Strategy::kICFC:
      plan.fp_fraction = 0.5;
      break;
    case Strategy::kVitBit:
      plan.fp_fraction = cfg.elementwise_fp_fraction;
      // Packing pays only when the kernel does enough lane-parallel work
      // to amortize pack/unpack; trivial kernels (dropout, add) run plain.
      plan.pack_int = plan.int_ops_per_elem >= 8;
      plan.pack_factor = cfg.pack_factor;
      break;
  }
  return plan;
}

CallKey make_key(Strategy s, const nn::KernelCall& call) {
  return CallKey{s,      call.kind, call.m,    call.k,
                 call.n, call.batch, call.elems};
}

// Auto-tune candidates for a fused GEMM, in the serial sweep order (paper
// Section 3.2: the assignment ratio comes from measured execution time).
// Candidate 0 is the pure tensor-core block; the rest try CUDA slices,
// warp splits, conversion sourcing, and the two block geometries ("extend"
// appends CUDA columns to the full tensor-core tile; "shift" reassigns
// part of the tile's own columns, Algorithm 1's N3 = N*m/(1+m)).
std::vector<trace::GemmBlockPlan> fused_gemm_candidates(
    Strategy strategy, const StrategyConfig& config,
    const arch::Calibration& calib) {
  std::vector<trace::GemmBlockPlan> plans;
  for (const int cols : {0, 3, 6, 9, 12, 15, 18, 21, 24}) {
    for (const int cuda_warps : {1, 2, 4}) {
      if (cols == 0 && cuda_warps != 1) continue;
      // TC+IC+FC may source its FP slice either preprocessed or via
      // in-kernel casts (Table 3 leaves this open); try both.
      for (const bool convert : {false, true}) {
        for (const bool shift : {false, true}) {
          StrategyConfig c = config;
          c.fused_cuda_cols = cols;
          auto plan = cols == 0 ? trace::plan_tc(calib)
                                : gemm_plan_for(strategy, c, calib);
          if (plan.fp_cols > 0 && strategy == Strategy::kTCICFC)
            plan.fp_runtime_convert = convert;
          else if (convert)
            continue;  // other strategies: one variant only
          if (cols > 0) {
            if (shift) {
              if (plan.tc_cols <= cols) continue;
              plan.tc_cols -= cols;
            }
            if (plan.int_cols > 0) plan.int_warps = cuda_warps;
            if (plan.fp_cols > 0) plan.fp_warps = cuda_warps;
          } else if (shift) {
            continue;
          }
          plans.push_back(plan);
        }
      }
    }
  }
  return plans;
}

// The exact input of one single-SM simulation, for the spec and
// calibration of one time_inferences call: a GEMM block trace is a pure
// function of its plan and K-panel count, an elementwise block trace of
// its plan without the extent, and the SM holds `resident` copies.
struct SliceKey {
  bool gemm = true;
  trace::GemmBlockPlan gemm_plan;       // GEMM slices
  int panels = 0;                       // GEMM slices
  trace::ElementwiseBlockPlan ew_plan;  // elementwise slices
  int resident = 0;

  auto operator<=>(const SliceKey&) const = default;
};

// The one-block kernel a slice simulates.
sim::KernelSpec build_slice(const SliceKey& key, const arch::OrinSpec& spec,
                            const arch::Calibration& calib) {
  if (key.gemm)
    return trace::build_gemm_block(key.gemm_plan, key.panels, spec, calib);
  return trace::build_elementwise_block(key.ew_plan, spec, calib);
}

// One (job, CallKey, candidate): the slice it simulates and the geometry
// that extrapolates the slice to its grid.
struct Task {
  std::uint32_t slice = 0;
  sim::LaunchGeometry geometry;
};

// A job's distinct CallKeys ("misses", in first-appearance order) and the
// range of tasks each one reduces over.
struct JobMisses {
  std::unordered_map<CallKey, std::size_t, CallKeyHash> index;
  std::vector<const nn::KernelCall*> misses;
  std::vector<std::size_t> task_begin;  // misses.size() + 1 entries
};

// Tuning progress of one (job, CallKey): its tasks [begin, end) in `order`
// are ranked by bound; [begin, next) are simulated and folded into the
// best, [next, taken) are in the current wave.
struct KeyState {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t next = 0;
  std::size_t taken = 0;
  std::size_t best = 0;  // task index of the winner so far
  std::uint64_t best_cycles = 0;
  bool closed = false;
};

// Fresh slices one key may add to a wave. A host-side schedule, like
// SmSim's park threshold: any value gives identical results, and only the
// number of slices simulated and of fan-outs changes.
constexpr std::size_t kWaveFreshSlices = 4;

// Per-kernel timings in log order from the winning launch of each miss.
InferenceTiming assemble(const nn::KernelLog& log, Strategy strategy,
                         const JobMisses& job,
                         const std::vector<sim::LaunchResult>& best,
                         const arch::OrinSpec& spec) {
  InferenceTiming out;
  out.strategy = strategy;
  for (const auto& call : log.calls()) {
    const sim::LaunchResult& r = best[job.index.at(make_key(strategy, call))];
    KernelTiming t;
    t.name = call.name;
    t.kind = call.kind;
    t.cycles = r.total_cycles;
    t.instructions = r.grid_instructions;
    {
      // Energy: dynamic unit + DRAM energy scaled from the simulated SM
      // slice to the whole grid, plus base power over the kernel duration.
      const arch::EnergyModel energy;
      const double dyn_nj =
          (energy.sm_dynamic_nj(r.sm) +
           energy.dram_nj_per_byte * static_cast<double>(r.sm.dram_bytes)) *
          r.grid_scale();
      const double stat_nj =
          energy.static_nj(spec, static_cast<double>(r.total_cycles));
      t.energy_mj = (dyn_nj + stat_nj) * 1e-6;
    }
    t.ipc = r.sm.ipc();
    t.sm = r.sm;
    t.int_util =
        r.sm.utilization(sim::ExecUnit::kIntPipe, spec.subcores_per_sm);
    t.fp_util =
        r.sm.utilization(sim::ExecUnit::kFpPipe, spec.subcores_per_sm);
    t.tc_util = r.sm.utilization(sim::ExecUnit::kTensor, spec.subcores_per_sm);
    out.total_cycles += t.cycles;
    out.total_instructions += t.instructions;
    out.total_energy_mj += t.energy_mj;
    if (call.kind == nn::KernelKind::kGemm)
      out.gemm_cycles += t.cycles;
    else
      out.cuda_cycles += t.cycles;
    out.kernels.push_back(std::move(t));
  }
  return out;
}

}  // namespace

std::size_t CallKeyHash::operator()(const CallKey& key) const {
  // FNV-1a over the key fields; the key count is small, so quality only
  // has to beat the ostringstream keys this replaced.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(key.strategy));
  mix(static_cast<std::uint64_t>(key.kind));
  mix(static_cast<std::uint64_t>(key.m));
  mix(static_cast<std::uint64_t>(key.k));
  mix(static_cast<std::uint64_t>(key.n));
  mix(static_cast<std::uint64_t>(key.batch));
  mix(static_cast<std::uint64_t>(key.elems));
  return static_cast<std::size_t>(h);
}

double InferenceTiming::mean_ipc() const {
  double weighted = 0.0;
  std::uint64_t cycles = 0;
  for (const auto& k : kernels) {
    weighted += k.ipc * static_cast<double>(k.cycles);
    cycles += k.cycles;
  }
  return cycles == 0 ? 0.0 : weighted / static_cast<double>(cycles);
}

double InferenceTiming::gemm_ops_per_cycle(const nn::KernelLog& log) const {
  if (gemm_cycles == 0) return 0.0;
  return 2.0 * static_cast<double>(log.total_macs()) /
         static_cast<double>(gemm_cycles);
}

std::vector<trace::GemmBlockPlan> gemm_candidates(
    Strategy strategy, const StrategyConfig& config,
    const arch::Calibration& calib) {
  const bool fused = strategy == Strategy::kTacker ||
                     strategy == Strategy::kTCICFC ||
                     strategy == Strategy::kVitBit;
  if (fused && config.auto_tune_fused_cols)
    return fused_gemm_candidates(strategy, config, calib);
  return {gemm_plan_for(strategy, config, calib)};
}

std::vector<trace::ElementwisePlan> elementwise_candidates(
    Strategy strategy, const nn::KernelCall& call,
    const StrategyConfig& config, const arch::Calibration& calib) {
  const auto plan = elementwise_plan_for(strategy, call, config, calib);
  const bool tunable =
      strategy == Strategy::kICFC || strategy == Strategy::kVitBit;
  if (!tunable || !config.auto_tune_fused_cols) return {plan};
  // Balance the element split between the pipes by measurement, exactly
  // like the GEMM ratio (Section 3.2 methodology).
  std::vector<trace::ElementwisePlan> out;
  for (const double f : {0.25, 1.0 / 3.0, 0.4, 0.5, 0.6}) {
    out.push_back(plan);
    out.back().fp_fraction = f;
  }
  return out;
}

std::vector<InferenceTiming> time_inferences(
    const std::vector<InferenceJob>& jobs, const arch::OrinSpec& spec,
    const arch::Calibration& calib, ThreadPool* pool) {
  // Phase 1 (serial, trace-free): per job, the distinct CallKeys; per
  // CallKey, each candidate's launch geometry and slice key. Slices are
  // numbered in order of first appearance.
  std::vector<JobMisses> job_misses(jobs.size());
  std::vector<SliceKey> slices;
  std::vector<Task> tasks;
  {
    std::map<SliceKey, std::uint32_t> slice_ids;
    const auto add_task = [&](const SliceKey& key,
                              const sim::LaunchGeometry& geometry) {
      const auto [it, fresh] = slice_ids.emplace(
          key, static_cast<std::uint32_t>(slices.size()));
      if (fresh) slices.push_back(key);
      tasks.push_back({it->second, geometry});
    };
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const InferenceJob& job = jobs[j];
      VITBIT_CHECK_MSG(job.log != nullptr, "inference job without a log");
      JobMisses& jm = job_misses[j];
      for (const auto& call : job.log->calls()) {
        const CallKey key = make_key(job.strategy, call);
        if (jm.index.emplace(key, jm.misses.size()).second)
          jm.misses.push_back(&call);
      }
      const auto gemm_plans = gemm_candidates(job.strategy, job.config, calib);
      for (const nn::KernelCall* call : jm.misses) {
        jm.task_begin.push_back(tasks.size());
        SliceKey key;
        if (call->kind == nn::KernelKind::kGemm) {
          const trace::GemmShape shape{call->m, call->k, call->n, call->batch};
          for (const auto& plan : gemm_plans) {
            const auto g = trace::gemm_geometry(shape, plan, spec);
            const auto launch = sim::launch_geometry(g.kernel, spec);
            key.gemm_plan = plan;
            key.panels = g.panels;
            key.resident = launch.resident_blocks;
            add_task(key, launch);
          }
          continue;
        }
        key.gemm = false;
        for (const auto& plan :
             elementwise_candidates(job.strategy, *call, job.config, calib)) {
          const auto launch = sim::launch_geometry(
              trace::elementwise_geometry(plan, spec), spec);
          key.ew_plan = plan;
          key.resident = launch.resident_blocks;
          add_task(key, launch);
        }
      }
      jm.task_begin.push_back(tasks.size());
    }
  }

  // Phase 2: a lower bound on the total of every candidate of every key
  // with more than one: one flat fan-out over their distinct slices, each
  // worker building its slice's block, counting it and dropping it. Then
  // each key's tasks in (bound total, candidate order). extrapolate is
  // monotone in the slice's cycles, so a bound total never exceeds the
  // simulated total.
  std::vector<KeyState> keys;
  for (const JobMisses& jm : job_misses)
    for (std::size_t mi = 0; mi < jm.misses.size(); ++mi) {
      const std::size_t begin = jm.task_begin[mi];
      const std::size_t end = jm.task_begin[mi + 1];
      VITBIT_CHECK(begin < end);
      keys.push_back({begin, end, begin});
    }
  std::vector<std::uint32_t> bounded;
  {
    std::vector<char> listed(slices.size(), 0);
    for (const KeyState& key : keys) {
      if (key.end - key.begin < 2) continue;
      for (std::size_t t = key.begin; t < key.end; ++t)
        if (!std::exchange(listed[tasks[t].slice], 1))
          bounded.push_back(tasks[t].slice);
    }
  }
  const auto bounds = parallel_map(pool, bounded.size(), [&](std::size_t i) {
    const SliceKey& key = slices[bounded[i]];
    return sim::slice_cycle_lower_bound(build_slice(key, spec, calib),
                                        key.resident, spec, calib);
  });
  std::vector<sim::SmStats> bound_stats(slices.size());
  for (std::size_t i = 0; i < bounded.size(); ++i)
    bound_stats[bounded[i]].cycles = bounds[i];
  // Task t's total when its slice runs `slice`.
  const auto total = [&](std::size_t t, const sim::SmStats& slice) {
    return sim::extrapolate(tasks[t].geometry, slice, calib).total_cycles;
  };
  std::vector<std::uint64_t> task_bound(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t)
    task_bound[t] = total(t, bound_stats[tasks[t].slice]);
  const auto by_bound = [&](std::size_t a, std::size_t b) {
    return std::pair(task_bound[a], a) < std::pair(task_bound[b], b);
  };
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (const KeyState& key : keys)
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(key.begin),
              order.begin() + static_cast<std::ptrdiff_t>(key.end), by_bound);

  // Phase 3: waves. Each open key takes its next candidates while their
  // bound is <= its best total so far (the first wave has no best yet),
  // up to kWaveFreshSlices slices no earlier wave or key has claimed. The
  // wave's new slices are the one flat fan-out; then every taken task is
  // extrapolated and kept if it beats the key's best by (cycles,
  // candidate order). A key closes once its next bound exceeds its best:
  // that candidate's true total does too, and so do all after it. A bound
  // equal to the best is still simulated, so an earlier candidate with an
  // equal total still wins the tie.
  std::vector<sim::SmStats> stats(slices.size());
  std::vector<char> claimed(slices.size(), 0);
  std::vector<std::uint32_t> wave;
  while (true) {
    wave.clear();
    bool any_open = false;
    for (KeyState& key : keys) {
      if (key.closed) continue;
      any_open = true;
      std::size_t fresh = 0;
      key.taken = key.next;
      while (key.taken < key.end && fresh < kWaveFreshSlices) {
        const std::size_t t = order[key.taken];
        if (key.next > key.begin && task_bound[t] > key.best_cycles) break;
        if (!std::exchange(claimed[tasks[t].slice], 1)) {
          wave.push_back(tasks[t].slice);
          ++fresh;
        }
        ++key.taken;
      }
    }
    if (!any_open) break;
    const auto wave_stats = parallel_map(pool, wave.size(), [&](std::size_t i) {
      const SliceKey& key = slices[wave[i]];
      return sim::simulate_sm(build_slice(key, spec, calib), key.resident,
                              spec, calib);
    });
    for (std::size_t i = 0; i < wave.size(); ++i)
      stats[wave[i]] = wave_stats[i];
    for (KeyState& key : keys) {
      if (key.closed) continue;
      for (; key.next < key.taken; ++key.next) {
        const std::size_t t = order[key.next];
        const std::uint64_t cycles = total(t, stats[tasks[t].slice]);
        if (key.next == key.begin ||
            std::pair(cycles, t) < std::pair(key.best_cycles, key.best)) {
          key.best = t;
          key.best_cycles = cycles;
        }
      }
      const bool swept = key.next == key.end;
      key.closed = swept || task_bound[order[key.next]] > key.best_cycles;
    }
  }

  // Assemble each job in log order from its keys' winners.
  std::vector<InferenceTiming> out;
  out.reserve(jobs.size());
  std::size_t k = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobMisses& jm = job_misses[j];
    std::vector<sim::LaunchResult> best;
    best.reserve(jm.misses.size());
    for (std::size_t mi = 0; mi < jm.misses.size(); ++mi, ++k) {
      const Task& task = tasks[keys[k].best];
      best.push_back(sim::extrapolate(task.geometry, stats[task.slice], calib));
    }
    out.push_back(assemble(*jobs[j].log, jobs[j].strategy, jm, best, spec));
  }
  return out;
}

std::vector<InferenceJob> strategy_jobs(const nn::KernelLog& log,
                                        std::span<const Strategy> strategies,
                                        const StrategyConfig& config) {
  std::vector<InferenceJob> jobs;
  jobs.reserve(strategies.size());
  for (const auto s : strategies) jobs.push_back({&log, s, config});
  return jobs;
}

InferenceTiming time_inference(const nn::KernelLog& log, Strategy strategy,
                               const StrategyConfig& config,
                               const arch::OrinSpec& spec,
                               const arch::Calibration& calib,
                               ThreadPool* pool) {
  auto timings = time_inferences({{&log, strategy, config}}, spec, calib, pool);
  return std::move(timings.front());
}

}  // namespace vitbit::core
