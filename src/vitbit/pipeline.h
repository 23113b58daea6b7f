// End-to-end timing pipeline: replays a model's kernel log (nn::KernelLog)
// against the simulator under a Table-3 strategy, producing the
// per-kernel and aggregate quantities behind the paper's Figures 5-10.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "nn/kernel_log.h"
#include "sim/launcher.h"
#include "trace/elementwise_traces.h"
#include "trace/gemm_traces.h"
#include "vitbit/strategy.h"

namespace vitbit {
class ThreadPool;
}

namespace vitbit::core {

struct StrategyConfig {
  // Tensor:CUDA assignment ratio m (Section 3.2; derived 4 from the study).
  int m_ratio = 4;
  // CUDA-core column slice of a fused GEMM block, in output columns
  // (tc_tile_n / m_ratio by default; the tuner refines it).
  int fused_cuda_cols = 12;
  int pack_factor = 2;
  // Elementwise FP-path share for strategies using both pipes.
  double elementwise_fp_fraction = 1.0 / 3.0;
  // Per-shape selection of the fused CUDA slice (the paper sets the split
  // ratio from measured execution times; with this on, each distinct GEMM
  // shape picks the fastest slice among candidates, falling back to a pure
  // tensor-core block where fusion does not pay).
  bool auto_tune_fused_cols = true;
};

struct KernelTiming {
  std::string name;
  nn::KernelKind kind = nn::KernelKind::kGemm;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;  // grid-wide issued instructions
  double ipc = 0.0;                // per-SM IPC during this kernel
  double int_util = 0.0;
  double fp_util = 0.0;
  double tc_util = 0.0;
  double energy_mj = 0.0;          // dynamic + static energy of this kernel
  // Stats of one simulated SM over one wave (opcode mix, unit busy cycles,
  // DRAM traffic) — serialized verbatim into run reports (report/).
  sim::SmStats sm;
};

struct InferenceTiming {
  Strategy strategy = Strategy::kTC;
  std::vector<KernelTiming> kernels;
  std::uint64_t total_cycles = 0;
  std::uint64_t gemm_cycles = 0;     // Tensor-core kernel class ("Linear")
  std::uint64_t cuda_cycles = 0;     // CUDA-core kernel class
  std::uint64_t total_instructions = 0;
  double total_energy_mj = 0.0;

  double total_ms(const arch::OrinSpec& spec) const {
    return static_cast<double>(total_cycles) / (spec.clock_ghz * 1e6);
  }
  // Cycle-weighted average IPC across kernels (paper Fig. 10).
  double mean_ipc() const;
  // Achieved useful-operation rate over the Linear kernels (ops/cycle):
  // numerator = 2 * MACs of the log's GEMMs (fixed across strategies), so
  // density ratios equal inverse Linear-time ratios (paper Fig. 8).
  double gemm_ops_per_cycle(const nn::KernelLog& log) const;
};

// Simulation-cache key: one distinct (strategy, kernel-shape) pair. Within
// one job the timing of a kernel depends on nothing else, so identical
// calls (the 12 identical ViT layers) are timed once. It carries no
// config, so it is only a key within one job.
struct CallKey {
  Strategy strategy = Strategy::kTC;
  nn::KernelKind kind = nn::KernelKind::kGemm;
  int m = 0, k = 0, n = 0;
  int batch = 1;
  std::int64_t elems = 0;

  bool operator==(const CallKey&) const = default;
};

struct CallKeyHash {
  std::size_t operator()(const CallKey& key) const;
};

// The block plans timed for one GEMM / elementwise kernel under
// `strategy`, in the order the per-kernel reduction tie-breaks on: one
// plan, or the auto-tune sweep when config.auto_tune_fused_cols is on
// (fused GEMMs sweep CUDA slices, warp splits and block geometries;
// IC+FC and VitBit elementwise kernels sweep the FP-path share).
std::vector<trace::GemmBlockPlan> gemm_candidates(
    Strategy strategy, const StrategyConfig& config,
    const arch::Calibration& calib);
std::vector<trace::ElementwisePlan> elementwise_candidates(
    Strategy strategy, const nn::KernelCall& call,
    const StrategyConfig& config, const arch::Calibration& calib);

// One kernel log to time under one strategy and config.
struct InferenceJob {
  const nn::KernelLog* log = nullptr;
  Strategy strategy = Strategy::kTC;
  StrategyConfig config;
};

// Times every kernel of every job; result i belongs to jobs[i].
//
// Each job's distinct CallKeys are collected first; each is timed as the
// fastest of its candidate plans (ties go to the earlier candidate). A
// candidate's timing is one single-SM simulation ("slice": the block's
// warp programs at the launch's resident block count) extrapolated to its
// grid. Slices are keyed exactly by the inputs that determine them — the
// block plan, the GEMM's K-panels after split-K, the resident count — and
// each distinct slice across all jobs is simulated at most once: the same
// K-panel block recurs across GEMM shapes and batch sizes, an elementwise
// block never depends on its extent, and every fused strategy's tuner
// tries the pure tensor-core block.
//
// A key with several candidates is tuned by bound. One flat fan-out over
// `pool` computes sim::slice_cycle_lower_bound for each distinct slice of
// such keys (building each block, counting it, dropping it), and each
// candidate's bound total is that bound extrapolated to its grid. The
// candidates are then simulated in waves, in (bound total, candidate
// order): each wave takes, per open key, its next candidates whose bound
// total is <= the key's best total so far, up to a fixed number of slices
// not yet simulated, and simulates the wave's new slices in one flat
// fan-out, building each block inside the worker that simulates it. A key
// closes once its next bound total exceeds its best: no later candidate
// can win or tie. The winners, and so every result, equal the exhaustive
// sweep's; only losing slices are skipped.
//
// The result is bit-identical to timing each job alone, for every pool
// size including `pool == nullptr` (serial), and the set of simulated
// slices does not depend on the pool. Nothing is cached across calls.
std::vector<InferenceTiming> time_inferences(
    const std::vector<InferenceJob>& jobs, const arch::OrinSpec& spec,
    const arch::Calibration& calib, ThreadPool* pool = nullptr);

// One job per strategy over the same log and config, in `strategies` order.
std::vector<InferenceJob> strategy_jobs(const nn::KernelLog& log,
                                        std::span<const Strategy> strategies,
                                        const StrategyConfig& config);

// time_inferences for a single job.
InferenceTiming time_inference(const nn::KernelLog& log, Strategy strategy,
                               const StrategyConfig& config,
                               const arch::OrinSpec& spec,
                               const arch::Calibration& calib,
                               ThreadPool* pool = nullptr);

}  // namespace vitbit::core
