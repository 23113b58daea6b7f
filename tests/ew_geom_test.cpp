// Elementwise kernels under the multi-SM L2 simulation: streaming traffic
// with block-private ranges is the negative control for the cache model —
// near-zero reuse, and timing close to the derate model (which charges
// these loads in full).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/gpu_sim.h"
#include "trace/elementwise_traces.h"

namespace vitbit::trace {
namespace {

const arch::OrinSpec kSpec;
const arch::Calibration& kCalib = arch::default_calibration();

// Absolute address of an access: the warp's operand offset plus the
// instruction's offset (warps of one class share one program).
std::uint64_t absolute_end(const sim::KernelSpec& kernel, std::size_t warp,
                           const sim::Instr& in) {
  return static_cast<std::uint64_t>(
             kernel.warp_operand_offsets[warp][in.operand]) +
         in.offset + in.bytes;
}

TEST(ElementwiseGeom, AddressesStayInBlockRange) {
  auto plan = elementwise_plan(nn::KernelKind::kGelu, 197 * 3072, kCalib);
  for (const double fp_fraction : {0.0, 1.0 / 3.0, 1.0}) {
    plan.fp_fraction = fp_fraction;
    const auto kernel = build_elementwise_kernel(plan, kSpec, kCalib);
    const auto geom = elementwise_grid_geom(plan, kSpec);
    ASSERT_TRUE(geom.addressed);
    ASSERT_EQ(kernel.warp_operand_offsets.size(), kernel.block_warps.size());
    const std::uint64_t in_extent = geom.operands[0].col_stride;
    const std::uint64_t out_extent = geom.operands[3].col_stride;
    for (std::size_t w = 0; w < kernel.block_warps.size(); ++w) {
      for (const auto& in : kernel.block_warps[w]->code) {
        if (in.op == sim::Opcode::kLdg) {
          ASSERT_EQ(in.operand, 0);
          EXPECT_LE(absolute_end(kernel, w, in), in_extent) << "warp " << w;
        } else if (in.op == sim::Opcode::kStg) {
          ASSERT_EQ(in.operand, 3);
          EXPECT_LE(absolute_end(kernel, w, in), out_extent) << "warp " << w;
        }
      }
    }
  }
}

// FNV-1a over every global access of the block — (warp, opcode, operand,
// absolute offset, bytes), warps in block order.
std::uint64_t address_digest(const sim::KernelSpec& kernel) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (std::size_t w = 0; w < kernel.block_warps.size(); ++w)
    for (const auto& in : kernel.block_warps[w]->code) {
      if (in.op != sim::Opcode::kLdg && in.op != sim::Opcode::kStg) continue;
      mix(w);
      mix(static_cast<std::uint64_t>(in.op));
      mix(in.operand);
      mix(static_cast<std::uint64_t>(
              kernel.warp_operand_offsets[w][in.operand]) +
          in.offset);
      mix(in.bytes);
    }
  return h;
}

// The INT-path warps share one program and the FP-path warps another, and
// their absolute addresses are pinned to the digests of the builder that
// baked each warp's slice into a program of its own. A pack factor of 1
// leaves the integer path unpacked.
void expect_pinned_addresses(ElementwisePlan plan, double fp_fraction,
                             int pack_factor, std::uint64_t digest) {
  plan.fp_fraction = fp_fraction;
  plan.pack_int = pack_factor > 1;
  plan.pack_factor = std::max(pack_factor, 2);
  const auto kernel = build_elementwise_kernel(plan, kSpec, kCalib);
  ASSERT_EQ(kernel.block_warps.size(), 8u);
  const auto fp_warps = static_cast<std::size_t>(std::lround(8 * fp_fraction));
  const std::size_t int_warps = 8 - fp_warps;
  for (std::size_t w = 0; w < 8; ++w) {
    const std::size_t first = w < int_warps ? 0 : int_warps;
    EXPECT_EQ(kernel.block_warps[w], kernel.block_warps[first]) << w;
  }
  if (int_warps > 0 && fp_warps > 0) {
    EXPECT_NE(kernel.block_warps.front(), kernel.block_warps.back());
  }
  EXPECT_EQ(address_digest(kernel), digest);
}

TEST(ElementwiseGeom, SharedClassProgramsKeepPerWarpAddresses) {
  using nn::KernelKind;
  // The block never depends on the extent.
  const auto plan = [](KernelKind kind) {
    return elementwise_plan(kind, 197 * 768, kCalib);
  };
  expect_pinned_addresses(plan(KernelKind::kGelu), 0.0, 1,
                          0x434b87113ad87783ull);
  expect_pinned_addresses(plan(KernelKind::kSoftmax), 0.5, 1,
                          0x434b87113ad87783ull);
  expect_pinned_addresses(plan(KernelKind::kLayerNorm), 1.0 / 3.0, 4,
                          0xda123b175d5efd1full);
  expect_pinned_addresses(plan(KernelKind::kAdd), 1.0, 1,
                          0x81ad09f50d551683ull);
}

TEST(ElementwiseGeom, StreamingHasNoCrossBlockReuse) {
  const auto plan =
      elementwise_plan(nn::KernelKind::kSoftmax, 12 * 197 * 197, kCalib);
  const auto kernel = build_elementwise_kernel(plan, kSpec, kCalib);
  const auto geom = elementwise_grid_geom(plan, kSpec);
  sim::GpuSim gpu(kSpec, kCalib);
  const auto r = gpu.run(kernel, geom,
                         sim::occupancy_blocks_per_sm(kernel, kSpec));
  // Hits come only from intra-128B-line locality (32B accesses -> <= 0.80);
  // cross-block reuse like a GEMM's shared A tile would push it higher.
  EXPECT_LT(r.l2_hit_rate, 0.82);
  // Every unique byte must miss at least once: the DRAM traffic of the
  // misses covers the full streamed footprint (int8 in + int8 out).
  const std::int64_t unique_bytes = plan.elems * 2;
  EXPECT_GE(static_cast<std::int64_t>(r.l2_misses) * 128,
            unique_bytes * 9 / 10);
  EXPECT_LE(static_cast<std::int64_t>(r.l2_misses) * 128,
            unique_bytes * 13 / 10);
}

TEST(ElementwiseGeom, L2ModelAgreesWithDerateModel) {
  const auto plan = elementwise_plan(nn::KernelKind::kGelu, 197 * 3072, kCalib);
  const auto kernel = build_elementwise_kernel(plan, kSpec, kCalib);
  const auto geom = elementwise_grid_geom(plan, kSpec);
  const auto a = sim::launch_kernel(kernel, kSpec, kCalib);
  const auto b = sim::launch_kernel_l2(kernel, geom, kSpec, kCalib);
  const double ratio = static_cast<double>(b.total_cycles) /
                       static_cast<double>(a.total_cycles);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.7);
}

}  // namespace
}  // namespace vitbit::trace
