// Property tests over randomly generated lane layouts — not just the
// paper's Fig. 3 policy points: any internally-consistent (lanes, field,
// bitwidths, mode) combination must round-trip and produce exact GEMMs
// with adaptive tiles, and the tile-major gemm_packed must match the
// column-major VITBIT_GEMM=ref oracle at every SIMD tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "swar/packed_gemm.h"
#include "tensor/gemm_dispatch.h"
#include "tensor/gemm_ref.h"
#include "tensor/simd_level.h"

namespace vitbit::swar {
namespace {

// Draws a random valid layout (resamples until valid()) with value and
// scalar bitwidths up to `max_bits`.
LaneLayout random_layout(Rng& rng, int max_bits = 10) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    LaneLayout l;
    l.num_lanes = static_cast<int>(rng.range(1, 4));
    l.field_bits = static_cast<int>(rng.range(4, 32 / l.num_lanes));
    l.value_bits =
        static_cast<int>(rng.range(2, std::min(max_bits, l.field_bits)));
    l.scalar_bits = static_cast<int>(rng.range(2, max_bits));
    const int mode = static_cast<int>(rng.range(0, 2));
    l.mode = mode == 0 ? LaneMode::kUnsigned
                       : (mode == 1 ? LaneMode::kOffset : LaneMode::kTopSigned);
    if (l.valid()) return l;
  }
  ADD_FAILURE() << "could not draw a valid layout";
  return paper_policy_layout(8);
}

TEST(RandomLayouts, PackUnpackRoundTrip) {
  Rng rng(101);
  std::vector<std::int32_t> vals, out;
  for (int trial = 0; trial < 300; ++trial) {
    const auto l = random_layout(rng);
    vals.assign(static_cast<std::size_t>(l.num_lanes), 0);
    out.assign(static_cast<std::size_t>(l.num_lanes), 0);
    for (auto& v : vals)
      v = static_cast<std::int32_t>(rng.range(l.value_min(), l.value_max()));
    unpack_lanes(pack_lanes(vals, l), l, out);
    ASSERT_EQ(vals, out) << l.to_string();
  }
}

TEST(RandomLayouts, AdaptiveGemmAlwaysExact) {
  Rng rng(202);
  for (int trial = 0; trial < 60; ++trial) {
    const auto l = random_layout(rng);
    const int m = static_cast<int>(rng.range(1, 5));
    const int k = static_cast<int>(rng.range(1, 48));
    const int n = static_cast<int>(rng.range(1, 7));
    MatrixI32 a(m, k), b(k, n);
    fill_uniform(a, rng, l.scalar_min(), l.scalar_max());
    fill_uniform(b, rng, l.value_min(), l.value_max());
    PackedGemmStats stats;
    const auto c = gemm_packed(a, b, l, {}, &stats);
    ASSERT_EQ(max_abs_diff(c, gemm_ref_int(a, b)), 0)
        << l.to_string() << " m=" << m << " k=" << k << " n=" << n;
    ASSERT_EQ(stats.overflow_tiles, 0) << l.to_string();
  }
}

TEST(RandomLayouts, BudgetIsTightestLaneConstraint) {
  // For every random layout, simulate a worst-case tile exactly at the
  // budget: lane sums must fit; one step beyond may overflow (we only
  // assert the safe side, which is the guarantee the library makes).
  Rng rng(303);
  for (int trial = 0; trial < 60; ++trial) {
    const auto l = random_layout(rng);
    const std::int64_t budget = l.scalar_abs_budget();
    if (budget > 4096) continue;  // keep the functional check small
    // All-extreme operands with total scalar weight exactly <= budget.
    const std::int64_t w = l.scalar_tile_weight(l.scalar_max());
    if (w <= 0) continue;
    const int k = static_cast<int>(budget / w);
    if (k < 1) continue;
    MatrixI32 a(1, k), b(k, l.num_lanes);
    for (auto& v : a.flat()) v = static_cast<std::int32_t>(l.scalar_max());
    for (auto& v : b.flat()) v = static_cast<std::int32_t>(l.value_min());
    PackedGemmOptions opt;
    opt.tile.mode = TileMode::kFixedPeriod;
    opt.tile.fixed_period = k;  // a single tile of exactly budget weight
    PackedGemmStats stats;
    const auto c = gemm_packed(a, PackedMatrix(b, l), opt, &stats);
    ASSERT_EQ(max_abs_diff(c, gemm_ref_int(a, b)), 0) << l.to_string();
    ASSERT_EQ(stats.overflow_tiles, 0)
        << "a tile within budget must never overflow: " << l.to_string();
  }
}

TEST(RandomLayouts, WorstCasePeriodIsSafe) {
  // Fixed tiles of exactly worst_case_period() steps never overflow, for
  // any data the layout admits.
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    const auto l = random_layout(rng);
    const std::int64_t period = l.worst_case_period();
    if (period < 1 || period > 256) continue;
    const int k = static_cast<int>(period) * 3;
    MatrixI32 a(2, k), b(k, l.num_lanes);
    fill_uniform(a, rng, l.scalar_min(), l.scalar_max());
    fill_uniform(b, rng, l.value_min(), l.value_max());
    PackedGemmOptions opt;
    opt.tile.mode = TileMode::kFixedPeriod;
    opt.tile.fixed_period = static_cast<int>(period);
    PackedGemmStats stats;
    const auto c = gemm_packed(a, PackedMatrix(b, l), opt, &stats);
    ASSERT_EQ(stats.overflow_tiles, 0) << l.to_string();
    ASSERT_EQ(max_abs_diff(c, gemm_ref_int(a, b)), 0) << l.to_string();
  }
}

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { set_simd_level_override(level); }
  ~ScopedSimdLevel() { clear_simd_level_override(); }
};

constexpr SimdLevel kAllLevels[] = {SimdLevel::kNone, SimdLevel::kSse,
                                    SimdLevel::kAvx2};

class ScopedEngine {
 public:
  explicit ScopedEngine(GemmEngine e) : saved_(default_gemm_engine()) {
    set_default_gemm_engine(e);
  }
  ~ScopedEngine() { set_default_gemm_engine(saved_); }

 private:
  GemmEngine saved_;
};

// One gemm_packed call: its output and stats, or nullopt if it threw.
struct PackedRun {
  MatrixI32 c;
  PackedGemmStats stats;
};

std::optional<PackedRun> run_packed(GemmEngine engine, const MatrixI32& a,
                                    const PackedMatrix& b,
                                    const PackedGemmOptions& opt) {
  ScopedEngine use(engine);
  PackedRun run;
  try {
    run.c = gemm_packed(a, b, opt, &run.stats);
  } catch (const CheckError&) {
    return std::nullopt;
  }
  return run;
}

// How the tile-major loop routes the rows of `a` x `b`. A row runs in
// one pass when its whole-row bound, sum |encoded scalar| * max |encoded
// lane value| <= INT32_MAX, holds and no column is violated; any other row
// goes tile by tile, with an int64 shadow for each tile whose own bound
// fails. Whether a row is violated comes from the ref oracle on that row.
struct RowPaths {
  int one_pass = 0;
  int by_tile_int32 = 0;  // tile by tile, every tile int32
  int by_tile_int64 = 0;  // tile by tile, some tile int64
  int violated_fallback = 0;
  int violated_no_fallback = 0;
};

void count_row_paths(const MatrixI32& a, const PackedMatrix& b,
                     const PackedGemmOptions& opt, RowPaths& paths) {
  const LaneLayout& l = b.layout();
  std::int64_t max_lane = 0;
  for (int k = 0; k < b.rows(); ++k)
    for (int pc = 0; pc < b.packed_cols(); ++pc)
      for (int lane = 0; lane < l.num_lanes; ++lane) {
        const bool raw_top =
            l.mode == LaneMode::kTopSigned && lane == l.num_lanes - 1;
        const std::int64_t v = b.value(k, pc, lane);
        const std::int64_t enc = raw_top ? v : v + l.zero_point();
        max_lane = std::max(max_lane, std::abs(enc));
      }
  for (int m = 0; m < a.rows(); ++m) {
    MatrixI32 row(1, a.cols());
    std::copy(a.row(m).begin(), a.row(m).end(), row.row(0).begin());
    const auto alone = run_packed(GemmEngine::kRef, row, b, opt);
    const bool violated = alone && alone->stats.overflow_tiles > 0;
    std::int64_t row_weight = 0;
    bool int64_tile = false;
    int k0 = 0;
    for (const int k1 : tile_boundaries(a.row(m), l, opt.tile)) {
      std::int64_t weight = 0;
      for (int k = k0; k < k1; ++k) weight += l.scalar_tile_weight(a.at(m, k));
      int64_tile |= weight * max_lane > INT32_MAX;
      row_weight += weight;
      k0 = k1;
    }
    if (violated)
      ++(opt.fallback_on_overflow ? paths.violated_fallback
                                  : paths.violated_no_fallback);
    if (row_weight * max_lane <= INT32_MAX && !violated)
      ++paths.one_pass;
    else
      ++(int64_tile ? paths.by_tile_int64 : paths.by_tile_int32);
  }
}

TEST(RandomLayouts, TileMajorGemmMatchesRefOracleAtEveryTier) {
  // Seeded layouts of 1-4 lanes, value and scalar bits 2-16, all three
  // lane modes; adaptive or fixed-period tiles, with and without the
  // overflow fallback. The simd engine at every forced tier must equal the
  // ref oracle in output, every stats field and whether it throws.
  Rng rng(505);
  std::int64_t overflow_tiles = 0;
  int throw_cases = 0;
  RowPaths paths;
  for (int trial = 0; trial < 300; ++trial) {
    const auto l = random_layout(rng, /*max_bits=*/16);
    const int m = static_cast<int>(rng.range(1, 6));
    const int k = static_cast<int>(rng.range(1, 300));
    // Every fourth case keeps n at or below the lane count.
    const int n = static_cast<int>(
        trial % 4 == 0 ? rng.range(1, l.num_lanes) : rng.range(1, 40));
    MatrixI32 a(m, k), b(k, n);
    fill_uniform(a, rng, l.scalar_min(), l.scalar_max());
    fill_uniform(b, rng, l.value_min(), l.value_max());
    PackedGemmOptions opt;
    if (rng.range(0, 1) == 1) {
      opt.tile.mode = TileMode::kFixedPeriod;
      opt.tile.fixed_period = static_cast<int>(rng.range(1, 64));
      opt.fallback_on_overflow = rng.range(0, 1) == 1;
    }
    const PackedMatrix packed(b, l);
    std::string where = l.to_string() + " m=" + std::to_string(m);
    where += " k=" + std::to_string(k) + " n=" + std::to_string(n);
    if (opt.tile.mode == TileMode::kFixedPeriod)
      where += " period=" + std::to_string(opt.tile.fixed_period);
    if (!opt.fallback_on_overflow) where += " no-fallback";
    SCOPED_TRACE(where);
    const auto want = run_packed(GemmEngine::kRef, a, packed, opt);
    for (const SimdLevel level : kAllLevels) {
      SCOPED_TRACE(simd_level_name(level));
      ScopedSimdLevel force(level);
      const auto got = run_packed(GemmEngine::kSimd, a, packed, opt);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (!want) continue;
      ASSERT_EQ(got->c, want->c);
      EXPECT_EQ(got->stats.mac_instructions, want->stats.mac_instructions);
      EXPECT_EQ(got->stats.spill_events, want->stats.spill_events);
      EXPECT_EQ(got->stats.overflow_tiles, want->stats.overflow_tiles);
      EXPECT_EQ(got->stats.total_tiles, want->stats.total_tiles);
      EXPECT_EQ(got->stats.mean_tile_length, want->stats.mean_tile_length);
    }
    if (want) overflow_tiles += want->stats.overflow_tiles;
    if (want) count_row_paths(a, packed, opt, paths);
    throw_cases += !want;
  }
  // The seeds must reach every routing of a row, a violation and a throw.
  EXPECT_GT(overflow_tiles, 0);
  EXPECT_GT(paths.one_pass, 0);
  EXPECT_GT(paths.by_tile_int32, 0);
  EXPECT_GT(paths.by_tile_int64, 0);
  EXPECT_GT(paths.violated_fallback, 0);
  EXPECT_GT(paths.violated_no_fallback, 0);
  EXPECT_GT(throw_cases, 0);
  RecordProperty("overflow_tiles", std::to_string(overflow_tiles));
  RecordProperty("rows_one_pass", paths.one_pass);
  RecordProperty("rows_by_tile_int32", paths.by_tile_int32);
  RecordProperty("rows_by_tile_int64", paths.by_tile_int64);
  RecordProperty("rows_violated_fallback", paths.violated_fallback);
  RecordProperty("rows_violated_no_fallback", paths.violated_no_fallback);
  RecordProperty("throw_cases", throw_cases);
}

}  // namespace
}  // namespace vitbit::swar
