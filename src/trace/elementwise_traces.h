// Elementwise ("CUDA core") kernel trace builders: the shiftmax, ShiftGELU,
// I-LayerNorm and dropout kernels of the quantized ViT (paper Section 3.3,
// Figure 7). Variants:
//   IC      — integer ops on the INT pipe only (baseline);
//   FC      — float ops (FP pipe + SFU) after int->float conversion;
//   IC+FC   — elements split between the two paths;
//   VitBit  — packed integer lanes on the INT pipe (+ FP split), packing
//             applied to the lane-parallel fraction of the op stream.
#pragma once

#include <compare>
#include <cstdint>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "nn/kernel_log.h"
#include "sim/gpu_sim.h"
#include "sim/launcher.h"

namespace vitbit::trace {

// Everything of an elementwise plan except its extent. It alone
// determines the thread block's trace; `elems` only sizes the grid.
struct ElementwiseBlockPlan {
  // Integer-path cost (ops per element on the INT pipe).
  int int_ops_per_elem = 16;
  // Float-path cost per element (used by FC / the FP half of IC+FC).
  int fp_ops_per_elem = 8;
  int sfu_ops_per_elem = 2;   // MUFU (exp/rcp)
  int conv_ops_per_elem = 2;  // I2F/F2I on the INT pipe
  // Fraction of elements processed by the FP path (0 = IC, 1 = FC).
  double fp_fraction = 0.0;
  // Packing of the integer path.
  bool pack_int = false;
  int pack_factor = 2;
  double packable_fraction = 0.7;  // lane-parallel share of the int ops
  // Bytes moved per element (int8 in + int8 out).
  int bytes_per_elem = 2;

  // Field-wise equality, plus an order for keyed containers.
  auto operator<=>(const ElementwiseBlockPlan&) const = default;
};

struct ElementwisePlan : ElementwiseBlockPlan {
  std::int64_t elems = 0;

  auto operator<=>(const ElementwisePlan&) const = default;
};

// Per-element cost table for the ViT CUDA-core kernels, from calibration.
ElementwisePlan elementwise_plan(nn::KernelKind kind, std::int64_t elems,
                                 const arch::Calibration& calib);

// Launch geometry of `plan` without emitting a trace: 8-warp blocks of 16
// elements per thread, enough of them to cover plan.elems.
sim::KernelGeometry elementwise_geometry(const ElementwisePlan& plan,
                                         const arch::OrinSpec& spec);

// One thread block of `plan`: one program per warp class (INT path, FP
// path), each warp's element slice in its operand offsets. Returned as a
// one-block kernel (grid_blocks = 1).
sim::KernelSpec build_elementwise_block(const ElementwiseBlockPlan& plan,
                                        const arch::OrinSpec& spec,
                                        const arch::Calibration& calib);

// build_elementwise_block over the grid of elementwise_geometry.
sim::KernelSpec build_elementwise_kernel(const ElementwisePlan& plan,
                                         const arch::OrinSpec& spec,
                                         const arch::Calibration& calib);

// Address layout for the L2 simulation: streaming, block-private ranges.
sim::GridGeom elementwise_grid_geom(const ElementwisePlan& plan,
                                    const arch::OrinSpec& spec);

}  // namespace vitbit::trace
