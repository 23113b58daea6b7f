// Lane-exactness of the span (bulk) SWAR kernels (swar/packed_span.h):
// every span op must equal the per-word scalar primitive lane for lane, at
// every SIMD tier, for every layout — the AVX2-vectorized uniform layouts
// (2x16, 4x8) and the always-scalar 3x10 — and every signedness mode.
// VITBIT_SIMD_LEVEL flips the implementation, never the answer, so each
// test runs its assertions under none, sse, and avx2 overrides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "swar/layout.h"
#include "swar/pack.h"
#include "swar/packed_simd.h"
#include "swar/packed_span.h"
#include "tensor/matrix.h"
#include "tensor/simd_level.h"

namespace vitbit::swar {
namespace {

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { set_simd_level_override(level); }
  ~ScopedSimdLevel() { clear_simd_level_override(); }
};

constexpr SimdLevel kAllLevels[] = {SimdLevel::kNone, SimdLevel::kSse,
                                    SimdLevel::kAvx2};
constexpr LaneMode kAllModes[] = {LaneMode::kUnsigned, LaneMode::kOffset,
                                  LaneMode::kTopSigned};

// The layouts under test: both AVX2-vectorizable uniform layouts plus the
// non-uniform 3x10, which must take the scalar path at every tier.
std::vector<LaneLayout> test_layouts(LaneMode mode) {
  return {paper_policy_layout(8, mode), paper_policy_layout(5, mode),
          paper_policy_layout(4, mode)};
}

// n raw values spanning the layout's full range (fill_uniform keeps them
// in [value_min, value_max], so packing never throws).
MatrixI32 random_values(int n, const LaneLayout& l, std::uint64_t seed) {
  MatrixI32 m(1, n);
  Rng rng(seed);
  fill_uniform(m, rng, static_cast<int>(l.value_min()),
               static_cast<int>(l.value_max()));
  return m;
}

// Packs values word by word through the scalar pack_lanes oracle,
// zero-value-padding the final partial group — the behaviour pack_span
// promises.
std::vector<std::uint32_t> pack_oracle(std::span<const std::int32_t> v,
                                       const LaneLayout& l) {
  const int L = l.num_lanes;
  std::vector<std::uint32_t> words((v.size() + L - 1) / L);
  std::vector<std::int32_t> group(L);
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (int lane = 0; lane < L; ++lane) {
      const std::size_t i = w * L + lane;
      group[lane] = i < v.size() ? v[i] : 0;
    }
    words[w] = pack_lanes(group, l);
  }
  return words;
}

TEST(PackSpan, MatchesPackLanesAtEveryTier) {
  for (const LaneMode mode : kAllModes) {
    for (const LaneLayout& l : test_layouts(mode)) {
      // 37 is not a multiple of 2, 3, or 4: the tail word is always
      // partial, and 37 values cover several full vector blocks for 2x16.
      const auto vals = random_values(37, l, 31);
      const auto want = pack_oracle(vals.row(0), l);
      for (const SimdLevel level : kAllLevels) {
        ScopedSimdLevel force(level);
        std::vector<std::uint32_t> got(want.size());
        pack_span(vals.row(0), l, got);
        EXPECT_EQ(got, want)
            << l.to_string() << " at " << simd_level_name(level);
      }
    }
  }
}

TEST(PackSpan, RangeViolationThrowsEverywhere) {
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force(level);
    const LaneLayout l = paper_policy_layout(8, LaneMode::kTopSigned);
    std::vector<std::int32_t> v(16, 0);
    std::vector<std::uint32_t> out(8);
    // Violation inside a full vector block...
    v[3] = static_cast<std::int32_t>(l.value_max()) + 1;
    EXPECT_THROW(pack_span(v, l, out), CheckError) << simd_level_name(level);
    // ...and in the scalar tail.
    v[3] = 0;
    std::vector<std::int32_t> tail(5, 0);
    std::vector<std::uint32_t> tail_out(3);
    tail[4] = static_cast<std::int32_t>(l.value_min()) - 1;
    EXPECT_THROW(pack_span(tail, l, tail_out), CheckError)
        << simd_level_name(level);
  }
}

TEST(PackSpan, OneLaneLayoutsMatchPackLanesAtEveryTier) {
  // The one-lane layouts (zero-masking, paper_policy_layout(>= 9)) write
  // each value's encoding directly; it must equal pack_lanes word for
  // word, in every mode, and an out-of-range value anywhere must throw
  // pack_lanes' own message.
  for (const LaneMode mode : kAllModes) {
    for (const int bits : {9, 12, 16}) {
      const LaneLayout l = paper_policy_layout(bits, mode);
      ASSERT_EQ(l.num_lanes, 1);
      const auto vals = random_values(37, l, 33);
      const auto want = pack_oracle(vals.row(0), l);
      for (const SimdLevel level : kAllLevels) {
        ScopedSimdLevel force(level);
        std::vector<std::uint32_t> got(want.size());
        pack_span(vals.row(0), l, got);
        EXPECT_EQ(got, want)
            << l.to_string() << " at " << simd_level_name(level);
        for (const std::int64_t bad : {l.value_max() + 1, l.value_min() - 1}) {
          std::vector<std::int32_t> v(vals.row(0).begin(), vals.row(0).end());
          v[30] = static_cast<std::int32_t>(bad);
          std::string scalar_msg, span_msg;
          try {
            pack_lanes(std::span<const std::int32_t>(&v[30], 1), l);
          } catch (const CheckError& e) {
            scalar_msg = e.what();
          }
          try {
            pack_span(v, l, got);
          } catch (const CheckError& e) {
            span_msg = e.what();
          }
          EXPECT_FALSE(scalar_msg.empty()) << l.to_string();
          EXPECT_EQ(span_msg, scalar_msg)
              << l.to_string() << " at " << simd_level_name(level);
        }
      }
    }
  }
}

TEST(UnpackSpan, RoundTripsAtEveryTier) {
  for (const LaneMode mode : kAllModes) {
    for (const LaneLayout& l : test_layouts(mode)) {
      const auto vals = random_values(41, l, 32);
      std::vector<std::uint32_t> words((41 + l.num_lanes - 1) / l.num_lanes);
      for (const SimdLevel level : kAllLevels) {
        ScopedSimdLevel force(level);
        pack_span(vals.row(0), l, words);
        std::vector<std::int32_t> back(41);
        unpack_span(words, l, back);
        for (int i = 0; i < 41; ++i)
          ASSERT_EQ(back[i], vals.at(0, i))
              << l.to_string() << " at " << simd_level_name(level)
              << " index " << i;
        // The padding lanes of the final partial word decode to value 0.
        std::vector<std::int32_t> full(words.size() * l.num_lanes);
        unpack_span(words, l, full);
        for (std::size_t i = 41; i < full.size(); ++i)
          ASSERT_EQ(full[i], 0) << l.to_string();
      }
    }
  }
}

// Word operands whose lanes are small non-negative raw values, so every
// per-lane debug check in the scalar primitives (no field overflow on add
// and scalar-mul, no borrow on sub) is satisfied by construction:
// a's raw lanes are vb + d with d >= 0, hence encoded lanes of a dominate
// encoded lanes of b in every mode.
struct OperandPair {
  std::vector<std::uint32_t> a, b;
};

OperandPair small_operands(int n_words, const LaneLayout& l,
                           std::uint64_t seed) {
  const int n = n_words * l.num_lanes;
  MatrixI32 vb(1, n), d(1, n);
  Rng rng(seed);
  fill_uniform(vb, rng, 0, 3);
  fill_uniform(d, rng, 0, 3);
  MatrixI32 va(1, n);
  for (int i = 0; i < n; ++i) va.at(0, i) = vb.at(0, i) + d.at(0, i);
  OperandPair p;
  p.a.resize(n_words);
  p.b.resize(n_words);
  pack_span(va.row(0), l, p.a);
  pack_span(vb.row(0), l, p.b);
  return p;
}

TEST(SwarSpanOps, LaneExactAgainstScalarPrimitives) {
  constexpr int kWords = 19;  // two full AVX2 blocks plus a ragged tail
  // Lane-wise ops require unsigned lane encodings (packed_simd.cpp), so
  // kTopSigned is excluded here and covered by TopSignedRejected below.
  for (const LaneMode mode : {LaneMode::kUnsigned, LaneMode::kOffset}) {
    for (const LaneLayout& l : test_layouts(mode)) {
      const auto p = small_operands(kWords, l, 33);
      for (const SimdLevel level : kAllLevels) {
        ScopedSimdLevel force(level);
        const std::string ctx =
            l.to_string() + " at " + simd_level_name(level);
        std::vector<std::uint32_t> r(kWords);
        swar_add_span(p.a, p.b, r, l);
        for (int i = 0; i < kWords; ++i)
          ASSERT_EQ(r[i], swar_add(p.a[i], p.b[i], l)) << ctx << " add " << i;
        swar_sub_span(p.a, p.b, r, l);
        for (int i = 0; i < kWords; ++i)
          ASSERT_EQ(r[i], swar_sub(p.a[i], p.b[i], l)) << ctx << " sub " << i;
        swar_scalar_mul_span(p.a, 3, r, l);
        for (int i = 0; i < kWords; ++i)
          ASSERT_EQ(r[i], swar_scalar_mul(p.a[i], 3, l))
              << ctx << " mul " << i;
        swar_shift_right_span(p.a, 2, r, l);
        for (int i = 0; i < kWords; ++i)
          ASSERT_EQ(r[i], swar_shift_right(p.a[i], 2, l))
              << ctx << " shr " << i;
        swar_mask_low_span(p.a, 3, r, l);
        for (int i = 0; i < kWords; ++i)
          ASSERT_EQ(r[i], swar_mask_low(p.a[i], 3, l)) << ctx << " mask " << i;
        swar_min_const_span(p.a, 5, r, l);
        for (int i = 0; i < kWords; ++i)
          ASSERT_EQ(r[i], swar_min_const(p.a[i], 5, l)) << ctx << " min " << i;
      }
    }
  }
}

TEST(SwarSpanOps, TopSignedRejectedAtEveryTier) {
  // The scalar primitives reject kTopSigned unconditionally; the span
  // forms must throw identically even when a release-mode vector path
  // would otherwise be taken.
  const LaneLayout l = paper_policy_layout(8, LaneMode::kTopSigned);
  std::vector<std::uint32_t> a(9, 0), b(9, 0), r(9);
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force(level);
    EXPECT_THROW(swar_add_span(a, b, r, l), CheckError)
        << simd_level_name(level);
    EXPECT_THROW(swar_sub_span(a, b, r, l), CheckError);
    EXPECT_THROW(swar_scalar_mul_span(a, 2, r, l), CheckError);
    EXPECT_THROW(swar_shift_right_span(a, 1, r, l), CheckError);
  }
}

TEST(SwarSpanOps, ResultMayAliasAnOperand) {
  const LaneLayout l = paper_policy_layout(4, LaneMode::kUnsigned);
  auto p = small_operands(11, l, 34);
  std::vector<std::uint32_t> want(11);
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force(level);
    auto a = p.a;
    swar_add_span(p.a, p.b, want, l);
    swar_add_span(a, p.b, a, l);  // r aliases a
    EXPECT_EQ(a, want) << simd_level_name(level);
  }
}

// Column j's step-s entry of a two-panel lane operand of `steps` steps.
std::size_t panel_entry(int j, int s, int steps) {
  return static_cast<std::size_t>(j / kShadowPanel * steps * kShadowPanel +
                                  s * kShadowPanel + j % kShadowPanel);
}

TEST(SwarSpanOps, LaneShadowSpanMatchesScalarLoopAtEveryTier) {
  // Seeded rows of two 16-column panels over 41 steps, each shadowed in
  // one pass over a tile list the way gemm_packed passes a row: random
  // tiles (1-step ones, odd lengths that end in the two-step unroll's
  // tail) or one 41-step tile. The last 5 columns are padding (entries 0,
  // caps [0, 0]). Caps are a random window around 0, the full int32 range
  // of a one-lane layout, or [0, hi], drawn so that some tiles leave them
  // and others never do. Every fourth row takes operands whose prefixes
  // reach close to the int32 limits, with caps anywhere in int32.
  constexpr int kCols = 2 * kShadowPanel, kSteps = 41, kPadding = 5;
  Rng rng(57);
  std::int64_t flagged = 0, clean = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const bool wide = trial % 4 == 3;
    const std::int64_t max_scalar = wide ? 32767 : 200;
    const std::int64_t max_entry = wide ? 1500 : 300;
    const std::int64_t max_cap = wide ? INT32_MAX : 200000;
    std::vector<std::int32_t> panels(2 * kSteps * kShadowPanel, 0);
    std::vector<std::int32_t> scalars(kSteps), lo(kCols, 0), hi(kCols, 0);
    for (auto& v : scalars)
      v = static_cast<std::int32_t>(rng.range(-max_scalar, max_scalar));
    for (int j = 0; j < kCols - kPadding; ++j) {
      for (int s = 0; s < kSteps; ++s)
        panels[panel_entry(j, s, kSteps)] =
            static_cast<std::int32_t>(rng.range(-max_entry, max_entry));
      switch (rng.range(0, 2)) {
        case 0:
          lo[j] = static_cast<std::int32_t>(-rng.range(0, max_cap));
          hi[j] = static_cast<std::int32_t>(rng.range(0, max_cap));
          break;
        case 1:
          lo[j] = INT32_MIN;
          hi[j] = INT32_MAX;
          break;
        default:
          hi[j] = static_cast<std::int32_t>(rng.range(0, max_cap));
      }
    }
    std::vector<int> ends;
    if (trial % 8 == 0) {
      ends = {kSteps};
    } else {
      for (int k = 0; k < kSteps; ends.push_back(k))
        k = std::min(kSteps, k + static_cast<int>(rng.range(1, 7)));
    }
    std::vector<std::int32_t> want_sums(kCols), want_violated(kCols);
    for (int j = 0; j < kCols; ++j) {
      std::int64_t row = 0;
      bool bad = false;
      int s = 0;
      for (const int end : ends) {
        std::int64_t sum = 0;
        for (; s < end; ++s) {
          sum += std::int64_t{scalars[s]} * panels[panel_entry(j, s, kSteps)];
          bad |= sum < lo[j] || sum > hi[j];
        }
        row += sum;
      }
      want_sums[j] = static_cast<std::int32_t>(row);
      want_violated[j] = bad ? -1 : 0;
      (bad ? flagged : clean) += 1;
    }
    for (const SimdLevel level : kAllLevels) {
      ScopedSimdLevel force(level);
      std::vector<std::int32_t> sums(kCols), violated(kCols);
      swar_lane_shadow_row(scalars, ends, panels, kSteps * kShadowPanel, lo, hi,
                           sums, violated);
      EXPECT_EQ(sums, want_sums)
          << simd_level_name(level) << " trial " << trial;
      EXPECT_EQ(violated, want_violated)
          << simd_level_name(level) << " trial " << trial;
    }
  }
  EXPECT_GT(flagged, 0);
  EXPECT_GT(clean, 0);
}

// A valid swar_lane_shadow_row call, two steps over one 16-column panel,
// for a test to break one argument at a time.
struct ShadowCall {
  std::vector<std::int32_t> scalars{3, -2};
  std::vector<int> ends{1, 2};
  std::vector<std::int32_t> panel, lo, hi, sums, violated;
  std::size_t stride = 2 * kShadowPanel;
  ShadowCall()
      : panel(2 * kShadowPanel, 1),
        lo(kShadowPanel, -10),
        hi(kShadowPanel, 10),
        sums(kShadowPanel),
        violated(kShadowPanel) {}
  void run() {
    swar_lane_shadow_row(scalars, ends, panel, stride, lo, hi, sums, violated);
  }
};

TEST(SwarSpanOps, SizeMismatchThrows) {
  const LaneLayout l = paper_policy_layout(8, LaneMode::kTopSigned);
  std::vector<std::int32_t> v(5, 0);
  std::vector<std::uint32_t> wrong(2);  // needs ceil(5/2) == 3
  EXPECT_THROW(pack_span(v, l, wrong), CheckError);
  std::vector<std::uint32_t> a(4), b(3), r(4);
  EXPECT_THROW(swar_add_span(a, b, r, l), CheckError);
  // One throw per bounds check of swar_lane_shadow_row.
  const ShadowCall valid;
  ShadowCall call = valid;
  ASSERT_NO_THROW(call.run());
  call.panel.pop_back();  // a lane entry missing
  EXPECT_THROW(call.run(), CheckError);
  call = valid;
  call.stride = kShadowPanel;  // shorter than the panel's two steps
  EXPECT_THROW(call.run(), CheckError);
  call = valid;
  call.lo.pop_back();  // not a whole panel of columns
  EXPECT_THROW(call.run(), CheckError);
  call = valid;
  call.sums.pop_back();
  EXPECT_THROW(call.run(), CheckError);
  call = valid;
  call.hi[3] = call.lo[3] - 1;  // hi below lo
  EXPECT_THROW(call.run(), CheckError);
  call = valid;
  call.ends = {1};  // the tiles end before the last step
  EXPECT_THROW(call.run(), CheckError);
  call = valid;
  call.ends = {1, 1, 2};  // tile ends do not increase
  EXPECT_THROW(call.run(), CheckError);
}

}  // namespace
}  // namespace vitbit::swar
