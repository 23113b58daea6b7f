// Exactness of SM-slice deduplication (core::time_inferences). A slice is
// the input of one single-SM simulation: a block's warp programs plus the
// resident block count. Over seeded random shapes and every strategy's
// candidate plans this checks the three facts deduplication rests on:
//   - the trace-free launch geometry equals the built kernel's;
//   - equal slice keys (plan, K-panels, resident) build identical blocks,
//     whatever the shape they came from;
//   - a LaunchResult extrapolated from a shared slice's SmStats equals
//     launch_kernel on the kernel itself, field by field.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "trace/elementwise_traces.h"
#include "trace/gemm_traces.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

const arch::OrinSpec kSpec;
const arch::Calibration& kCalib = arch::default_calibration();

// Repeats compared per key, and repeats checked against launch_kernel per
// test (each of those costs simulations).
constexpr std::size_t kRepeatsPerKey = 3;
constexpr int kLaunchChecks = 24;

// One kernel of a sweep: the distinct slice key it maps to and its
// trace-free launch geometry.
struct Member {
  std::size_t key = 0;
  sim::LaunchGeometry launch;
};

// Index of `key` in `keys`, appending it when new.
template <typename Key>
std::size_t key_index(std::vector<Key>& keys, const Key& key) {
  const auto it = std::find(keys.begin(), keys.end(), key);
  if (it != keys.end()) return static_cast<std::size_t>(it - keys.begin());
  keys.push_back(key);
  return keys.size() - 1;
}

void expect_same_block(const sim::KernelSpec& a, const sim::KernelSpec& b) {
  ASSERT_EQ(a.block_warps.size(), b.block_warps.size());
  for (std::size_t w = 0; w < a.block_warps.size(); ++w)
    EXPECT_TRUE(*a.block_warps[w] == *b.block_warps[w]) << "warp " << w;
  EXPECT_EQ(a.warp_operand_offsets, b.warp_operand_offsets);
  EXPECT_EQ(a.regs_per_thread, b.regs_per_thread);
  EXPECT_EQ(a.smem_bytes, b.smem_bytes);
}

void expect_same_launch(const sim::LaunchResult& a,
                        const sim::LaunchResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.blocks_per_sm, b.blocks_per_sm);
  EXPECT_EQ(a.resident_blocks, b.resident_blocks);
  EXPECT_EQ(a.grid_blocks, b.grid_blocks);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.grid_instructions, b.grid_instructions);
  EXPECT_TRUE(a.sm == b.sm);
}

// For every key with repeats: the repeats build the first member's block,
// and (for the first kLaunchChecks repeats) extrapolating the first
// member's simulated slice to a repeat's geometry equals launch_kernel on
// the repeat. `build(i)` builds member i's kernel. Returns the number of
// repeats compared.
template <typename Build>
int check_shared_slices(const std::vector<Member>& members,
                        std::size_t num_keys, const Build& build) {
  std::vector<std::vector<std::size_t>> groups(num_keys);
  for (std::size_t i = 0; i < members.size(); ++i)
    groups[members[i].key].push_back(i);
  int repeats = 0, launch_checks = 0;
  for (const auto& group : groups) {
    if (group.size() < 2) continue;
    const Member& first = members[group.front()];
    const sim::KernelSpec block = build(group.front());
    sim::SmStats slice;
    bool simulated = false;
    for (std::size_t r = 1; r < group.size() && r <= kRepeatsPerKey; ++r) {
      ++repeats;
      const Member& repeat = members[group[r]];
      const sim::KernelSpec kernel = build(group[r]);
      expect_same_block(block, kernel);
      if (launch_checks >= kLaunchChecks) continue;
      ++launch_checks;
      if (!simulated) {
        slice = sim::simulate_sm(block, first.launch.resident_blocks, kSpec,
                                 kCalib);
        simulated = true;
      }
      expect_same_launch(sim::extrapolate(repeat.launch, slice, kCalib),
                         sim::launch_kernel(kernel, kSpec, kCalib));
    }
  }
  EXPECT_EQ(launch_checks, kLaunchChecks);
  return repeats;
}

struct GemmKey {
  trace::GemmBlockPlan plan;
  int panels = 0;
  int resident = 0;
  bool operator==(const GemmKey&) const = default;
};

struct ElementwiseKey {
  trace::ElementwiseBlockPlan plan;
  int resident = 0;
  bool operator==(const ElementwiseKey&) const = default;
};

TEST(SliceExactness, GemmKeysAreExact) {
  // Every distinct candidate plan of every strategy at pack factors 2, 4.
  std::vector<trace::GemmBlockPlan> plans;
  for (const int pack : {2, 4}) {
    core::StrategyConfig cfg;
    cfg.pack_factor = pack;
    for (const auto s : core::all_strategies())
      for (const auto& plan : core::gemm_candidates(s, cfg, kCalib))
        key_index(plans, plan);
  }
  ASSERT_GT(plans.size(), 100u);

  // K from a short list so K-panel counts recur across shapes; M, N and
  // the batch vary freely (they reach the block only through split-K).
  Rng rng(20240917);
  const int ks[] = {32, 96, 200, 384};
  std::vector<GemmKey> keys;
  std::vector<Member> members;
  std::vector<std::pair<trace::GemmShape, trace::GemmBlockPlan>> kernels;
  for (int i = 0; i < 10; ++i) {
    const trace::GemmShape shape{static_cast<int>(rng.range(1, 600)),
                                 ks[rng.below(std::size(ks))],
                                 static_cast<int>(rng.range(1, 3200)),
                                 static_cast<int>(rng.range(1, 4))};
    for (const auto& plan : plans) {
      const auto geometry = trace::gemm_geometry(shape, plan, kSpec);
      const auto kernel = trace::build_gemm_kernel(shape, plan, kSpec, kCalib);
      ASSERT_EQ(geometry.kernel, kernel.geometry());
      const auto launch = sim::launch_geometry(geometry.kernel, kSpec);
      const GemmKey key{plan, geometry.panels, launch.resident_blocks};
      members.push_back({key_index(keys, key), launch});
      kernels.emplace_back(shape, plan);
    }
  }
  const auto build = [&](std::size_t i) {
    return trace::build_gemm_kernel(kernels[i].first, kernels[i].second, kSpec,
                                    kCalib);
  };
  // The shapes must actually share slices.
  EXPECT_GT(check_shared_slices(members, keys.size(), build), 100);
}

TEST(SliceExactness, ElementwiseKeysAreExact) {
  Rng rng(7);
  std::vector<std::int64_t> extents = {1, 4096, 197 * 768, 12 * 197 * 197};
  for (int i = 0; i < 4; ++i) extents.push_back(rng.range(2, 3'000'000));

  std::vector<ElementwiseKey> keys;
  std::vector<Member> members;
  std::vector<trace::ElementwisePlan> kernels;
  // Every elementwise kind (they follow kGemm in KernelKind).
  for (int k = 1; k <= static_cast<int>(nn::KernelKind::kPool); ++k) {
    for (const auto elems : extents) {
      nn::KernelCall call;
      call.kind = static_cast<nn::KernelKind>(k);
      call.elems = elems;
      for (const int pack : {2, 4}) {
        core::StrategyConfig cfg;
        cfg.pack_factor = pack;
        for (const auto s : core::all_strategies()) {
          for (const auto& plan :
               core::elementwise_candidates(s, call, cfg, kCalib)) {
            const auto geometry = trace::elementwise_geometry(plan, kSpec);
            const auto kernel =
                trace::build_elementwise_kernel(plan, kSpec, kCalib);
            ASSERT_EQ(geometry, kernel.geometry());
            const auto launch = sim::launch_geometry(geometry, kSpec);
            const ElementwiseKey key{plan, launch.resident_blocks};
            members.push_back({key_index(keys, key), launch});
            kernels.push_back(plan);
          }
        }
      }
    }
  }
  const auto build = [&](std::size_t i) {
    return trace::build_elementwise_kernel(kernels[i], kSpec, kCalib);
  };
  EXPECT_GT(check_shared_slices(members, keys.size(), build), 100);
}

}  // namespace
}  // namespace vitbit
