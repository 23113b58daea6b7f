// Soundness of sim::slice_cycle_lower_bound, the bound the tuner in
// core::time_inferences prunes candidates by: it must never exceed the
// cycles SmSim (and the frozen SmSimRef) simulate for the same slice.
// Checked on every tuner candidate's block at its resident count, and on
// seeded random legal programs under random calibrations. On those random
// programs SmSim's stats must also equal SmSimRef's, field for field.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/launcher.h"
#include "sim/sm_sim.h"
#include "sim/sm_sim_ref.h"
#include "trace/elementwise_traces.h"
#include "trace/gemm_traces.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

const arch::OrinSpec kSpec;

template <typename Sim>
sim::SmStats simulated_stats(const sim::KernelSpec& kernel, int resident,
                             const arch::Calibration& calib) {
  Sim sm(kSpec, calib);
  for (int b = 0; b < resident; ++b) sm.add_block(kernel.block_warps);
  return sm.run();
}

template <typename Sim>
std::uint64_t simulated_cycles(const sim::KernelSpec& kernel, int resident,
                               const arch::Calibration& calib) {
  return simulated_stats<Sim>(kernel, resident, calib).cycles;
}

template <typename Key>
void insert_new(std::vector<Key>& keys, const Key& key) {
  if (std::find(keys.begin(), keys.end(), key) == keys.end())
    keys.push_back(key);
}

struct GemmSlice {
  trace::GemmBlockPlan plan;
  int panels = 0;
  int resident = 0;
  bool operator==(const GemmSlice&) const = default;
};

struct ElementwiseSlice {
  trace::ElementwiseBlockPlan plan;
  int resident = 0;
  bool operator==(const ElementwiseSlice&) const = default;
};

// Every candidate plan of every strategy at pack 2 and 4, on the seeded
// GEMM shapes of slice_exactness_test, at the resident count its launch
// simulates: each distinct slice once.
TEST(SliceBound, NeverExceedsSimulatedGemmCandidates) {
  const arch::Calibration& calib = arch::default_calibration();
  std::vector<trace::GemmBlockPlan> plans;
  for (const int pack : {2, 4}) {
    core::StrategyConfig cfg;
    cfg.pack_factor = pack;
    for (const auto s : core::all_strategies())
      for (const auto& plan : core::gemm_candidates(s, cfg, calib))
        insert_new(plans, plan);
  }
  Rng rng(20240917);
  const int ks[] = {32, 96, 200, 384};
  std::vector<GemmSlice> slices;
  for (int i = 0; i < 10; ++i) {
    const trace::GemmShape shape{static_cast<int>(rng.range(1, 600)),
                                 ks[rng.below(std::size(ks))],
                                 static_cast<int>(rng.range(1, 3200)),
                                 static_cast<int>(rng.range(1, 4))};
    for (const auto& plan : plans) {
      const auto g = trace::gemm_geometry(shape, plan, kSpec);
      const auto launch = sim::launch_geometry(g.kernel, kSpec);
      insert_new(slices, GemmSlice{plan, g.panels, launch.resident_blocks});
    }
  }
  ASSERT_GT(slices.size(), 1000u);
  // (bound, simulated cycles) per slice; the ~2000 simulations fan out.
  ThreadPool pool(4);
  const auto results = pool.parallel_map(slices.size(), [&](std::size_t i) {
    const GemmSlice& s = slices[i];
    const auto block = trace::build_gemm_block(s.plan, s.panels, kSpec, calib);
    return std::pair(
        sim::slice_cycle_lower_bound(block, s.resident, kSpec, calib),
        sim::simulate_sm(block, s.resident, kSpec, calib).cycles);
  });
  double tightness = 0.0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const auto [bound, cycles] = results[i];
    ASSERT_LE(bound, cycles) << "slice " << i;
    tightness += static_cast<double>(bound) / static_cast<double>(cycles);
  }
  // Tight enough to prune: the bound averages ~0.8 of the total.
  EXPECT_GT(tightness / static_cast<double>(slices.size()), 0.7);
}

// Every elementwise kind, every strategy's candidates at pack 2 and 4,
// over extents from one element to millions.
TEST(SliceBound, NeverExceedsSimulatedElementwiseCandidates) {
  const arch::Calibration& calib = arch::default_calibration();
  const std::int64_t extents[] = {1, 4096, 197 * 768, 465708, 2999999};
  std::vector<ElementwiseSlice> slices;
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
               core::elementwise_candidates(s, call, cfg, calib)) {
            const auto launch = sim::launch_geometry(
                trace::elementwise_geometry(plan, kSpec), kSpec);
            insert_new(slices, ElementwiseSlice{plan, launch.resident_blocks});
          }
        }
      }
    }
  }
  ASSERT_GT(slices.size(), 50u);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    SCOPED_TRACE(i);
    const ElementwiseSlice& s = slices[i];
    const auto block = trace::build_elementwise_block(s.plan, kSpec, calib);
    const std::uint64_t bound =
        sim::slice_cycle_lower_bound(block, s.resident, kSpec, calib);
    ASSERT_LE(bound, simulated_cycles<sim::SmSim>(block, s.resident, calib));
    ASSERT_LE(bound, simulated_cycles<sim::SmSimRef>(block, s.resident, calib));
  }
}

// Any opcode but BAR and EXIT, which random_program places itself.
sim::Opcode random_opcode(Rng& rng) {
  while (true) {
    const auto op = static_cast<sim::Opcode>(rng.below(sim::kNumOpcodes));
    if (op != sim::Opcode::kBar && op != sim::Opcode::kExit) return op;
  }
}

// One random instruction: `favorite` half the time (so programs load one
// unit hard, where the bound is tightest), any opcode but BAR and EXIT
// otherwise, with random registers and memory widths from 1 B to 1 KiB.
sim::Instr random_instr(Rng& rng, std::uint16_t regs, sim::Opcode favorite) {
  const auto reg = [&] {
    return rng.below(4) == 0 ? sim::kNoReg
                             : static_cast<std::uint16_t>(rng.below(regs));
  };
  sim::Instr in;
  in.op = rng.below(2) == 0 ? favorite : random_opcode(rng);
  in.dst = reg();
  in.src = {reg(), reg(), reg()};
  if (sim::is_memory(in.op)) {
    in.bytes = static_cast<std::uint32_t>(rng.range(1, 1024));
    in.dram_bytes = static_cast<std::uint32_t>(rng.range(0, in.bytes));
    // Stores write no register.
    if (in.op == sim::Opcode::kStg || in.op == sim::Opcode::kSts)
      in.dst = sim::kNoReg;
  }
  return in;
}

// A random legal program: `bars` barriers (every warp of a block has the
// same count, so each barrier releases), random instructions between them.
sim::ProgramPtr random_program(Rng& rng, int bars) {
  sim::ProgramBuilder b;
  const auto regs = static_cast<std::uint16_t>(rng.range(1, 16));
  for (std::uint16_t r = 0; r < regs; ++r) b.new_reg();
  const sim::Opcode favorite = random_opcode(rng);
  for (int segment = 0; segment <= bars; ++segment) {
    if (segment > 0) b.bar();
    const auto n = rng.range(0, 40);
    for (std::int64_t i = 0; i < n; ++i) {
      const sim::Instr in = random_instr(rng, regs, favorite);
      b.emit(in.op, in.dst, in.src[0], in.src[1], in.src[2], in.bytes);
      b.last().dram_bytes = in.dram_bytes;
    }
  }
  b.exit();
  return b.build();
}

arch::Calibration random_calibration(Rng& rng) {
  arch::Calibration c;
  c.imma_occupancy_cycles = static_cast<int>(rng.range(1, 64));
  c.lsu_bytes_per_cycle = static_cast<int>(rng.range(8, 256));
  c.smem_latency_cycles = static_cast<int>(rng.range(1, 64));
  c.dram_latency_cycles = static_cast<int>(rng.range(1, 600));
  c.greedy_scheduler = rng.below(2) == 1;
  return c;
}

void expect_bound_holds(const sim::KernelSpec& kernel, int resident,
                        const arch::Calibration& calib) {
  const std::uint64_t bound =
      sim::slice_cycle_lower_bound(kernel, resident, kSpec, calib);
  EXPECT_LE(bound, simulated_cycles<sim::SmSim>(kernel, resident, calib));
  EXPECT_LE(bound, simulated_cycles<sim::SmSimRef>(kernel, resident, calib));
}

// A seeded random block: 1-8 warps drawn from a few shared programs, at
// resident 1-4, under a random calibration.
struct RandomSlice {
  sim::KernelSpec kernel;
  int resident = 0;
  arch::Calibration calib;
};

RandomSlice random_slice(Rng& rng) {
  RandomSlice s;
  s.calib = random_calibration(rng);
  const int bars = static_cast<int>(rng.range(0, 3));
  std::vector<sim::ProgramPtr> programs;
  for (auto n = rng.range(1, 3); n > 0; --n)
    programs.push_back(random_program(rng, bars));
  for (auto warps = rng.range(1, 8); warps > 0; --warps)
    s.kernel.block_warps.push_back(programs[rng.below(programs.size())]);
  s.resident = static_cast<int>(rng.range(1, 4));
  return s;
}

constexpr std::uint64_t kRandomSliceSeed = 0x51ce;

TEST(SliceBound, NeverExceedsSimulatedRandomPrograms) {
  Rng rng(kRandomSliceSeed);
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(seed);
    const RandomSlice s = random_slice(rng);
    expect_bound_holds(s.kernel, s.resident, s.calib);
  }
}

// The same random slices: the packed simulator's stats equal the frozen
// reference's, field for field.
TEST(SmSimIdentity, MatchesRefOnRandomPrograms) {
  Rng rng(kRandomSliceSeed);
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(seed);
    const RandomSlice s = random_slice(rng);
    const sim::SmStats fast =
        simulated_stats<sim::SmSim>(s.kernel, s.resident, s.calib);
    const sim::SmStats ref =
        simulated_stats<sim::SmSimRef>(s.kernel, s.resident, s.calib);
    EXPECT_TRUE(fast == ref)
        << "cycles " << fast.cycles << " vs " << ref.cycles;
  }
}

// Pinned: blocks of 1 or 4 warps that end in a run of wide stores. The
// stores' DRAM time far exceeds the simulated total, because EXIT waits
// only for register writes and a store writes none: a DRAM term would make
// the bound unsound. The SM-wide LSU term holds.
TEST(SliceBound, TrailingStoresAreNotWaitedFor) {
  const arch::Calibration& calib = arch::default_calibration();
  sim::ProgramBuilder b;
  const auto acc = b.new_reg();
  b.ldg(acc, 128);
  for (int i = 0; i < 8; ++i) b.imad(acc, acc, acc, acc);
  constexpr int kStores = 64;
  constexpr std::uint32_t kBytes = 1024;
  for (int i = 0; i < kStores; ++i) b.stg(acc, kBytes);
  b.exit();
  const sim::ProgramPtr program = b.build();
  const double dram_rate = kSpec.dram_bytes_per_cycle_per_sm();
  for (const int warps : {1, 4}) {
    sim::KernelSpec kernel;
    kernel.block_warps.assign(static_cast<std::size_t>(warps), program);
    for (int resident = 1; resident <= 4; ++resident) {
      SCOPED_TRACE(testing::Message() << warps << " warps x " << resident);
      const std::uint64_t cycles =
          simulated_cycles<sim::SmSim>(kernel, resident, calib);
      const int total_warps = warps * resident;
      const double stored_bytes = 1.0 * total_warps * kStores * kBytes;
      EXPECT_LT(static_cast<double>(cycles), stored_bytes / dram_rate);
      const std::uint64_t bound =
          sim::slice_cycle_lower_bound(kernel, resident, kSpec, calib);
      EXPECT_LE(bound, cycles);
      // The LSU term: every warp's LDG (1 cycle) and 64 stores (8 each).
      const std::uint64_t lsu = total_warps * (1 + kStores * 8) - 8 + 1;
      EXPECT_GE(bound, lsu);
      // It misses only the wait for the load and the IMAD chain the stores
      // depend on.
      EXPECT_LE(cycles - bound, calib.dram_latency_cycles + 64u);
    }
  }
}

// Pinned: nothing after a warp's first EXIT issues, so it is not counted.
TEST(SliceBound, CountsOnlyUpToTheFirstExit) {
  const arch::Calibration& calib = arch::default_calibration();
  sim::ProgramBuilder b;
  const auto r = b.new_reg();
  b.exit();
  for (int i = 0; i < 100; ++i) b.imma(r, r, r);
  b.exit();
  sim::KernelSpec kernel;
  kernel.block_warps.assign(2, b.build());
  EXPECT_EQ(simulated_cycles<sim::SmSim>(kernel, 1, calib), 1u);
  EXPECT_EQ(sim::slice_cycle_lower_bound(kernel, 1, kSpec, calib), 1u);
}

// Pinned: the issue term counts the instructions homed on one sub-core
// (warp i of block b on sub-core (i + b) % 4), and a stall-free block
// meets it exactly.
TEST(SliceBound, IssueTermIsPerSubcore) {
  const arch::Calibration& calib = arch::default_calibration();
  sim::ProgramBuilder b;
  const auto r = b.new_reg();
  for (int i = 0; i < 99; ++i) b.emit(sim::Opcode::kNop, sim::kNoReg, r);
  b.exit();
  sim::KernelSpec one_warp;
  one_warp.block_warps = {b.build()};
  // Four blocks of one warp: one warp per sub-core, 100 issues each.
  EXPECT_EQ(sim::slice_cycle_lower_bound(one_warp, 4, kSpec, calib), 100u);
  EXPECT_EQ(simulated_cycles<sim::SmSim>(one_warp, 4, calib), 100u);
  // Two blocks of four warps: two warps per sub-core.
  sim::KernelSpec four_warps;
  four_warps.block_warps.assign(4, one_warp.block_warps.front());
  EXPECT_EQ(sim::slice_cycle_lower_bound(four_warps, 2, kSpec, calib), 200u);
  EXPECT_EQ(simulated_cycles<sim::SmSim>(four_warps, 2, calib), 200u);
}

}  // namespace
}  // namespace vitbit
