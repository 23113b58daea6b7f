// GEMM kernel trace builders.
//
// One thread block computes a tile_m x (tc_cols + int_cols + fp_cols) output
// tile, streaming K in tile_k panels through shared memory. Warps are
// specialized per unit class (paper Algorithm 2 / Section 3.3): tensor-core
// warps issue IMMA over the B3 column slice, INT warps issue IMAD over B1
// (optionally packed), FP warps issue FFMA over B2. All three execute
// concurrently inside the block — the hardware-level warp co-scheduling the
// paper relies on [Tacker].
//
// Every Table-3 method is a configuration of GemmBlockPlan:
//   TC        {tc_cols=64}
//   IC        {int_cols=64}
//   FC        {fp_cols=64, fp_runtime_convert=true}
//   IC+FC     {int_cols=32, fp_cols=32, fp_runtime_convert=true}
//   IC+FC+P   {int_cols=2/3, fp_cols=1/3 of 64, pack_int=true}   (Eq. 1)
//   Tacker    {tc_cols=64, int_cols=X}
//   TC+IC+FC  {tc_cols=64, int_cols=X, fp_cols=Y, fp_runtime_convert=true}
//   VitBit    {tc_cols=64, int_cols=X, fp_cols=Y, pack_int=true}
#pragma once

#include <compare>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "sim/gpu_sim.h"
#include "sim/launcher.h"

namespace vitbit::trace {

struct GemmShape {
  int m = 0;
  int k = 0;
  int n = 0;
  int batch = 1;  // independent instances (attention heads)
};

struct GemmBlockPlan {
  int tile_m = 128;
  int tile_k = 32;
  // Output columns per block handled by each unit class (int_cols counts
  // original columns; packing divides the register/IMAD count).
  int tc_cols = 0;
  int int_cols = 0;
  int fp_cols = 0;
  // Packing of the B1 slice (paper Fig. 3 policy + spill accounting).
  bool pack_int = false;
  int pack_factor = 2;
  int pack_k_tile = 32;   // accumulation-tile length (spill period)
  int pack_spill_ops = 6; // INT ops per packed register per spill
  // FC/IC+FC/TC+IC+FC convert INT inputs to float inside the kernel
  // (Table 3); VitBit preprocesses instead (Algorithm 1), loading fp32.
  bool fp_runtime_convert = false;
  // Warps per unit class (used only when the class has columns).
  int tc_warps = 4;
  int int_warps = 4;
  int fp_warps = 4;

  int total_cols() const { return tc_cols + int_cols + fp_cols; }
  int total_warps() const {
    return (tc_cols > 0 ? tc_warps : 0) + (int_cols > 0 ? int_warps : 0) +
           (fp_cols > 0 ? fp_warps : 0);
  }

  // Field-wise equality, plus an order for keyed containers.
  auto operator<=>(const GemmBlockPlan&) const = default;
};

// Launch geometry of `plan` over `shape`, computed without emitting a
// trace: the output-tile grid, split-K, and the K-panels each block
// streams — the only way the shape reaches a block's trace.
struct GemmGeometry {
  int row_blocks = 1;
  int col_blocks = 1;
  int split_k = 1;
  int panels = 1;  // K-panels per block, after split-K
  sim::KernelGeometry kernel;
};

GemmGeometry gemm_geometry(const GemmShape& shape, const GemmBlockPlan& plan,
                           const arch::OrinSpec& spec);

// One thread block of `plan` streaming `panels` K-panels: one program per
// warp class, each warp's operand slice in its operand offsets. A pure
// function of (plan, panels) for a fixed spec and calibration. Returned as
// a one-block kernel (grid_blocks = 1).
sim::KernelSpec build_gemm_block(const GemmBlockPlan& plan, int panels,
                                 const arch::OrinSpec& spec,
                                 const arch::Calibration& calib);

// Builds the simulator kernel for `plan` applied to `shape`: the block of
// build_gemm_block over the grid of gemm_geometry. The emitted traces
// carry operand addresses, so the kernel runs under both the calibrated
// single-SM launcher and the multi-SM L2 simulation.
sim::KernelSpec build_gemm_kernel(const GemmShape& shape,
                                  const GemmBlockPlan& plan,
                                  const arch::OrinSpec& spec,
                                  const arch::Calibration& calib);

// Physical address layout of the kernel's operands (for launch_kernel_l2).
sim::GridGeom gemm_grid_geom(const GemmShape& shape,
                             const GemmBlockPlan& plan,
                             const arch::OrinSpec& spec);

// Ready-made plans for the Table 3 comparison methods. `cuda_cols` sets the
// CUDA-core column slice of the fused methods (the paper's m-ratio: the
// auto-tuner in vitbit/ derives it from measured rates).
GemmBlockPlan plan_tc(const arch::Calibration& calib);
GemmBlockPlan plan_ic(const arch::Calibration& calib);
GemmBlockPlan plan_fc(const arch::Calibration& calib);
GemmBlockPlan plan_ic_fc(const arch::Calibration& calib);
GemmBlockPlan plan_ic_fc_packed(const arch::Calibration& calib,
                                int pack_factor = 2);
GemmBlockPlan plan_tacker(const arch::Calibration& calib, int cuda_cols);
GemmBlockPlan plan_tc_ic_fc(const arch::Calibration& calib, int cuda_cols);
GemmBlockPlan plan_vitbit(const arch::Calibration& calib, int cuda_cols,
                          int pack_factor = 2);

}  // namespace vitbit::trace
