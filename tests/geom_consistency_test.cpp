// Consistency between the GEMM trace builder's per-warp addresses and the
// grid geometry it declares: every load must fall inside its operand's
// per-block extent, or blocks would alias each other's data and the L2
// model would hallucinate reuse. A warp's absolute address is its operand
// offset plus the instruction's offset; the warps of one class share one
// program and differ only in those offsets.
#include <gtest/gtest.h>

#include <set>

#include "sim/gpu_sim.h"
#include "trace/gemm_traces.h"

namespace vitbit::trace {
namespace {

const arch::OrinSpec kSpec;
const arch::Calibration& kCalib = arch::default_calibration();

// The per-block extent of each operand implied by the geometry (the
// smallest non-zero stride bounds how far a block's offsets may reach).
std::array<std::uint64_t, 4> block_extents(const sim::GridGeom& g) {
  std::array<std::uint64_t, 4> e{};
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t extent = UINT64_MAX;
    for (const std::uint64_t s :
         {g.operands[i].outer_stride, g.operands[i].row_stride,
          g.operands[i].col_stride})
      if (s > 0) extent = std::min(extent, s);
    e[i] = extent;
  }
  return e;
}

void check_plan(const GemmShape& shape, const GemmBlockPlan& plan) {
  const auto kernel = build_gemm_kernel(shape, plan, kSpec, kCalib);
  const auto geom = gemm_grid_geom(shape, plan, kSpec);
  ASSERT_TRUE(geom.addressed);
  ASSERT_EQ(kernel.warp_operand_offsets.size(), kernel.block_warps.size());
  const auto extents = block_extents(geom);
  for (std::size_t w = 0; w < kernel.block_warps.size(); ++w) {
    for (const auto& in : kernel.block_warps[w]->code) {
      if (in.op != sim::Opcode::kLdg && in.op != sim::Opcode::kStg) continue;
      ASSERT_NE(in.operand, sim::kNoOperand)
          << "GEMM global access must be addressed";
      ASSERT_LT(in.operand, 4);
      const std::uint64_t end =
          static_cast<std::uint64_t>(
              kernel.warp_operand_offsets[w][in.operand]) +
          in.offset + in.bytes;
      EXPECT_LE(end, extents[in.operand])
          << "warp " << w << " operand " << static_cast<int>(in.operand)
          << " access reaches past the block extent (offset=" << in.offset
          << ", extent=" << extents[in.operand] << ")";
    }
  }
  // Address regions of distinct operands must not overlap anywhere in the
  // grid (bases are spaced by region).
  for (int b = 0; b < std::min(kernel.grid_blocks, 8); ++b) {
    const auto bases = geom.block_bases(b);
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j) {
        const bool disjoint = bases[i] + extents[i] <= bases[j] ||
                              bases[j] + extents[j] <= bases[i];
        EXPECT_TRUE(disjoint) << "operands " << i << " and " << j
                              << " overlap in block " << b;
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

// Warps of one class share one program: the block holds exactly one
// program per class with columns, each over a contiguous warp range.
void expect_one_program_per_class(const sim::KernelSpec& kernel,
                                  const GemmBlockPlan& plan) {
  std::vector<int> class_warps;
  for (const auto& [cols, warps] : {std::pair{plan.tc_cols, plan.tc_warps},
                                    std::pair{plan.int_cols, plan.int_warps},
                                    std::pair{plan.fp_cols, plan.fp_warps}})
    if (cols > 0) class_warps.push_back(warps);
  std::set<const sim::Program*> programs;
  std::size_t first = 0;
  for (const int warps : class_warps) {
    ASSERT_LE(first + static_cast<std::size_t>(warps),
              kernel.block_warps.size());
    for (int w = 1; w < warps; ++w)
      EXPECT_EQ(kernel.block_warps[first + static_cast<std::size_t>(w)],
                kernel.block_warps[first]);
    programs.insert(kernel.block_warps[first].get());
    first += static_cast<std::size_t>(warps);
  }
  EXPECT_EQ(first, kernel.block_warps.size());
  EXPECT_EQ(programs.size(), class_warps.size());
}

// The absolute per-warp addresses are pinned to the digests of the
// builder that emitted one program per warp with its slice baked into
// every offset: sharing programs moved the slice into the warp's operand
// offsets without moving a single access.
void expect_pinned_addresses(const GemmShape& shape, const GemmBlockPlan& plan,
                             std::uint64_t digest) {
  const auto kernel = build_gemm_kernel(shape, plan, kSpec, kCalib);
  expect_one_program_per_class(kernel, plan);
  EXPECT_EQ(address_digest(kernel), digest);
}

TEST(GeomConsistency, SharedClassProgramsKeepPerWarpAddresses) {
  const GemmShape fc1{197, 768, 3072, 1};
  const GemmShape proj{197, 768, 768, 1};
  expect_pinned_addresses(fc1, plan_tc(kCalib), 0xa7d45035bb4ee4a3ull);
  expect_pinned_addresses(proj, plan_ic(kCalib), 0x7c66fec3cfd222d3ull);
  expect_pinned_addresses(proj, plan_fc(kCalib), 0x7c66fec3cfd222d3ull);
  expect_pinned_addresses(proj, plan_ic_fc_packed(kCalib),
                          0x1b0c5d91265feac3ull);
  expect_pinned_addresses(fc1, plan_tacker(kCalib, 12), 0xcb6ad51f6e86a879ull);
  expect_pinned_addresses(proj, plan_tc_ic_fc(kCalib, 12),
                          0x3fcae95553e50ba3ull);
  expect_pinned_addresses(fc1, plan_vitbit(kCalib, 12), 0xeb4954a272c429a5ull);
  expect_pinned_addresses(fc1, plan_vitbit(kCalib, 15, 4),
                          0xe22dfdd2cb92165full);
  expect_pinned_addresses({197, 64, 197, 12}, plan_tc(kCalib),
                          0x5d4dfb4932b68a93ull);
  expect_pinned_addresses({128, 96, 128, 1}, plan_vitbit(kCalib, 6),
                          0x02c4c8270e920ef2ull);
}

TEST(GeomConsistency, TcPlan) {
  check_plan({197, 768, 3072, 1}, plan_tc(kCalib));
}

TEST(GeomConsistency, IcPlan) {
  check_plan({197, 768, 768, 1}, plan_ic(kCalib));
}

TEST(GeomConsistency, PackedPlan) {
  check_plan({197, 768, 768, 1}, plan_ic_fc_packed(kCalib));
}

TEST(GeomConsistency, FusedVitBitPlan) {
  check_plan({197, 768, 3072, 1}, plan_vitbit(kCalib, 12));
}

TEST(GeomConsistency, RuntimeConvertPlan) {
  check_plan({197, 768, 768, 1}, plan_tc_ic_fc(kCalib, 12));
}

TEST(GeomConsistency, BatchedAttentionShape) {
  check_plan({197, 64, 197, 12}, plan_tc(kCalib));
}

TEST(GeomConsistency, SmallKSplit) {
  check_plan({128, 96, 128, 1}, plan_vitbit(kCalib, 6));
}

}  // namespace
}  // namespace vitbit::trace
