#include "trace/elementwise_traces.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/int_math.h"

namespace vitbit::trace {

using sim::ProgramBuilder;
using sim::ProgramPtr;

ElementwisePlan elementwise_plan(nn::KernelKind kind, std::int64_t elems,
                                 const arch::Calibration& calib) {
  ElementwisePlan p;
  p.elems = elems;
  switch (kind) {
    case nn::KernelKind::kGelu:
      p.int_ops_per_elem = calib.gelu_int_ops;
      p.fp_ops_per_elem = 12;  // tanh-form polynomial + scaling
      p.sfu_ops_per_elem = 3;  // exp + rcp
      p.conv_ops_per_elem = 4;  // I2F in, F2I + requant out
      break;
    case nn::KernelKind::kSoftmax:
      p.int_ops_per_elem = calib.softmax_int_ops;
      p.fp_ops_per_elem = 14;  // max/sum reductions + normalization
      p.sfu_ops_per_elem = 4;  // exp + rcp + shuffle-reduce
      p.conv_ops_per_elem = 4;
      break;
    case nn::KernelKind::kLayerNorm:
      p.int_ops_per_elem = calib.layernorm_int_ops;
      p.fp_ops_per_elem = 8;   // mean/var reductions + scale
      p.sfu_ops_per_elem = 2;  // rsqrt
      p.conv_ops_per_elem = 3;
      break;
    case nn::KernelKind::kDropout:
    case nn::KernelKind::kAdd:
      p.int_ops_per_elem = calib.dropout_int_ops;
      p.fp_ops_per_elem = 2;
      p.sfu_ops_per_elem = 0;
      p.bytes_per_elem = 3;  // two inputs + one output for add
      break;
    case nn::KernelKind::kRelu:
      p.int_ops_per_elem = 3;  // max(0, x) + requant
      p.fp_ops_per_elem = 2;
      p.sfu_ops_per_elem = 0;
      break;
    case nn::KernelKind::kPool:
      p.int_ops_per_elem = 6;  // 2x2 window max + addressing
      p.fp_ops_per_elem = 4;
      p.sfu_ops_per_elem = 0;
      p.bytes_per_elem = 5;    // 4 inputs + 1 output per output element
      break;
    default:
      VITBIT_CHECK_MSG(false, "not an elementwise kernel");
  }
  p.packable_fraction = calib.elementwise_packable_fraction;
  return p;
}

namespace {

struct EwWarpParams {
  int steps = 0;  // element-chunks of 32 per warp
  // Per step (one warp-width of elements):
  int int_ops = 0;
  int fp_ops = 0;
  int sfu_ops = 0;
  int conv_ops = 0;
  int bytes_in = 32;
  int bytes_out = 32;
};

ProgramPtr build_ew_warp(const EwWarpParams& p) {
  ProgramBuilder b;
  // Rotating registers so independent elements don't serialize on WAW.
  std::vector<std::uint16_t> tmp;
  for (int i = 0; i < 8; ++i) tmp.push_back(b.new_reg());
  const auto data0 = b.new_reg();
  const auto data1 = b.new_reg();
  int rot = 0;
  auto next_tmp = [&]() { return tmp[static_cast<std::size_t>(rot++ % 8)]; };
  for (int s = 0; s < p.steps; ++s) {
    const auto in_reg = (s % 2) ? data1 : data0;
    const auto step = static_cast<std::uint32_t>(s);
    b.ldg(in_reg, static_cast<std::uint32_t>(p.bytes_in), UINT32_MAX,
          /*operand=*/0, step * static_cast<std::uint32_t>(p.bytes_in));
    for (int i = 0; i < p.conv_ops; ++i) b.i2f(next_tmp(), in_reg);
    for (int i = 0; i < p.int_ops; ++i) {
      const auto d = next_tmp();
      if (i % 3 == 0)
        b.shf(d, in_reg);
      else if (i % 3 == 1)
        b.iadd(d, d, in_reg);
      else
        b.imad(d, d, in_reg, d);
    }
    for (int i = 0; i < p.fp_ops; ++i) {
      const auto d = next_tmp();
      b.ffma(d, d, in_reg, d);
    }
    for (int i = 0; i < p.sfu_ops; ++i) b.mufu(next_tmp(), in_reg);
    b.stg(in_reg, static_cast<std::uint32_t>(p.bytes_out), UINT32_MAX,
          /*operand=*/3, step * static_cast<std::uint32_t>(p.bytes_out));
  }
  b.exit();
  return b.build();
}

}  // namespace

namespace {

// Block shape and resources of every elementwise kernel.
constexpr int kWarpsPerBlock = 8;
constexpr int kElemsPerThread = 16;
constexpr int kRegsPerThread = 32;

std::int64_t elems_per_block(const arch::OrinSpec& spec) {
  return static_cast<std::int64_t>(kWarpsPerBlock) * spec.warp_size *
         kElemsPerThread;
}

}  // namespace

sim::KernelGeometry elementwise_geometry(const ElementwisePlan& plan,
                                         const arch::OrinSpec& spec) {
  VITBIT_CHECK(plan.elems > 0);
  sim::KernelGeometry g;
  g.warps_per_block = kWarpsPerBlock;
  g.grid_blocks = static_cast<int>(
      ceil_div<std::int64_t>(plan.elems, elems_per_block(spec)));
  g.regs_per_thread = kRegsPerThread;
  g.smem_bytes = 0;
  return g;
}

sim::KernelSpec build_elementwise_block(const ElementwiseBlockPlan& plan,
                                        const arch::OrinSpec& spec,
                                        const arch::Calibration& calib) {
  (void)calib;
  VITBIT_CHECK(plan.fp_fraction >= 0.0 && plan.fp_fraction <= 1.0);
  const std::int64_t block_elems = elems_per_block(spec);

  // Element split between the INT path and the FP path.
  const double fpf = plan.fp_fraction;
  const int fp_warps = static_cast<int>(std::lround(fpf * kWarpsPerBlock));
  const int int_warps = kWarpsPerBlock - fp_warps;

  // Per-warp steps so the block covers block_elems total.
  auto steps_for = [&](int nwarps, double fraction) {
    if (nwarps == 0) return 0;
    const double elems = static_cast<double>(block_elems) * fraction;
    return static_cast<int>(
        std::ceil(elems / (static_cast<double>(nwarps) * spec.warp_size)));
  };

  sim::KernelSpec kernel;
  kernel.regs_per_thread = kRegsPerThread;
  kernel.smem_bytes = 0;
  int warp_slot = 0;
  // Emits `count` warps of class `p` sharing one program; each warp's
  // operand offsets select its slice of the block's input and output.
  auto emit_class = [&](const EwWarpParams& p, int count) {
    const ProgramPtr program = build_ew_warp(p);
    for (int w = 0; w < count; ++w) {
      const auto slot = static_cast<std::uint32_t>(warp_slot);
      kernel.block_warps.push_back(program);
      kernel.warp_operand_offsets.push_back(
          {slot * static_cast<std::uint32_t>(p.steps * p.bytes_in), 0, 0,
           slot * static_cast<std::uint32_t>(p.steps * p.bytes_out)});
      ++warp_slot;
    }
  };
  if (int_warps > 0) {
    EwWarpParams p;
    p.steps = steps_for(int_warps, 1.0 - fpf);
    double ops = plan.int_ops_per_elem;
    if (plan.pack_int) {
      // Lane-parallel share runs packed (÷ pack factor) + pack/unpack cost.
      ops = plan.packable_fraction * ops / plan.pack_factor +
            (1.0 - plan.packable_fraction) * ops + 2.0;
      // Packed registers also shrink the loads.
      p.bytes_in = static_cast<int>(32.0 * plan.bytes_per_elem / 2.0 /
                                    plan.pack_factor) +
                   16;
    } else {
      p.bytes_in = 16 * plan.bytes_per_elem;
    }
    p.bytes_out = 32;
    p.int_ops = static_cast<int>(std::lround(ops));
    emit_class(p, int_warps);
  }
  if (fp_warps > 0) {
    EwWarpParams p;
    p.steps = steps_for(fp_warps, fpf);
    p.fp_ops = plan.fp_ops_per_elem;
    p.sfu_ops = plan.sfu_ops_per_elem;
    p.conv_ops = plan.conv_ops_per_elem;
    p.bytes_in = 16 * plan.bytes_per_elem;
    p.bytes_out = 32;
    emit_class(p, fp_warps);
  }
  return kernel;
}

sim::KernelSpec build_elementwise_kernel(const ElementwisePlan& plan,
                                         const arch::OrinSpec& spec,
                                         const arch::Calibration& calib) {
  const sim::KernelGeometry g = elementwise_geometry(plan, spec);
  sim::KernelSpec kernel = build_elementwise_block(plan, spec, calib);
  kernel.grid_blocks = g.grid_blocks;
  return kernel;
}

sim::GridGeom elementwise_grid_geom(const ElementwisePlan& plan,
                                    const arch::OrinSpec& spec) {
  // Streaming kernels: every block reads/writes a private element range —
  // the L2 sees no cross-block reuse (a negative control for the cache
  // model). Block ranges are column-indexed.
  const std::int64_t block_elems = elems_per_block(spec);
  sim::GridGeom g;
  g.addressed = true;
  g.row_blocks = 1;
  g.col_blocks = elementwise_geometry(plan, spec).grid_blocks;
  // Generous per-block strides cover the rounded per-warp slices.
  const std::uint64_t in_stride =
      static_cast<std::uint64_t>(block_elems) *
      static_cast<std::uint64_t>(plan.bytes_per_elem + 2);
  const std::uint64_t out_stride =
      static_cast<std::uint64_t>(block_elems) * 4;
  g.operands[0] = {0x1000'0000ull, 0, 0, in_stride};
  g.operands[3] = {0xC000'0000ull, 0, 0, out_stride};
  return g;
}

}  // namespace vitbit::trace
