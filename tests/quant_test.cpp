#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "epilogue_oracles.h"
#include "quant/fixed_point.h"
#include "quant/ilayernorm.h"
#include "quant/int_exp.h"
#include "quant/qtensor.h"
#include "quant/shift_gelu.h"
#include "quant/shiftmax.h"

namespace vitbit::quant {
namespace {

TEST(Dyadic, RepresentsScalesAccurately) {
  for (const double v : {0.5, 0.123, 1.0, 3.14159, 0.0009765625}) {
    const auto d = dyadic_from_double(v);
    EXPECT_NEAR(d.to_double(), v, v * 1e-4) << "v=" << v;
  }
}

TEST(Dyadic, RejectsNonPositive) {
  EXPECT_THROW(dyadic_from_double(0.0), CheckError);
  EXPECT_THROW(dyadic_from_double(-1.0), CheckError);
}

TEST(Dyadic, MulMatchesDoubleWithinRounding) {
  const auto d = dyadic_from_double(0.37);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto x = static_cast<std::int32_t>(rng.range(-100000, 100000));
    EXPECT_NEAR(dyadic_mul(x, d), x * 0.37, 1.0);
  }
}

TEST(RoundingShift, RoundsHalfAwayFromZero) {
  EXPECT_EQ(rounding_shift(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(rounding_shift(-5, 1), -3);  // -2.5 -> -3
  EXPECT_EQ(rounding_shift(4, 1), 2);
  EXPECT_EQ(rounding_shift(-4, 1), -2);
  EXPECT_EQ(rounding_shift(7, 0), 7);
}

// round(x / 2^shift), half away from zero, in sign-magnitude form: the
// oracle for rounding_shift's branch-free arithmetic shift.
std::int64_t sign_magnitude_shift(std::int64_t x, int shift) {
  if (shift == 0) return x;
  const std::int64_t half = std::int64_t{1} << (shift - 1);
  return x >= 0 ? (x + half) >> shift : -((-x + half) >> shift);
}

TEST(RoundingShift, BranchFreeFormEqualsSignMagnitudeForm) {
  for (int shift = 0; shift <= 40; ++shift)
    for (std::int64_t x = -5000; x <= 5000; ++x)
      ASSERT_EQ(rounding_shift(x, shift), sign_magnitude_shift(x, shift))
          << x << " >> " << shift;
  // Seeded int64s whose rounded result fits int32: up to 2^61 at shifts
  // that bring them back inside.
  Rng rng(41);
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    const int shift = static_cast<int>(rng.range(0, 62));
    const int mag = static_cast<int>(rng.range(0, 61));
    const std::int64_t x =
        rng.range(-(std::int64_t{1} << mag), std::int64_t{1} << mag);
    const std::int64_t want = sign_magnitude_shift(x, shift);
    if (want < INT32_MIN || want > INT32_MAX) continue;
    ASSERT_EQ(rounding_shift(x, shift), want) << x << " >> " << shift;
    ++checked;
  }
  EXPECT_GT(checked, 100000);
}

TEST(RoundingShift, ChecksShiftAndOverflow) {
  EXPECT_THROW(rounding_shift(1, -1), CheckError);
  EXPECT_THROW(rounding_shift(1, 63), CheckError);
  EXPECT_THROW(rounding_shift(std::int64_t{1} << 40, 0), CheckError);
  EXPECT_THROW(rounding_shift(-(std::int64_t{1} << 40), 8), CheckError);
  EXPECT_EQ(rounding_shift(-(std::int64_t{1} << 40), 9), INT32_MIN);
}

TEST(Isqrt, ExactFloorSqrt) {
  for (std::int64_t x : {0LL, 1LL, 2LL, 3LL, 4LL, 15LL, 16LL, 17LL, 1000000LL,
                         (1LL << 40) - 1, 1LL << 40}) {
    const auto r = isqrt(x);
    EXPECT_LE(r * r, x) << x;
    EXPECT_GT((r + 1) * (r + 1), x) << x;
  }
}

TEST(Isqrt, PropertySweep) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto x = static_cast<std::int64_t>(rng.below(1ull << 50));
    const auto r = isqrt(x);
    ASSERT_LE(r * r, x);
    ASSERT_GT((r + 1) * (r + 1), x);
  }
}

TEST(QTensor, QuantizeDequantizeRoundTrip) {
  Rng rng(4);
  MatrixF32 x(8, 8);
  for (auto& v : x.flat()) v = static_cast<float>(rng.uniform(-4.0, 4.0));
  const int fb = choose_frac_bits(x, 8);
  const auto t = quantize(x, fb, 8);
  const auto back = dequantize(t);
  // Max quantization error is half a step.
  const double step = std::ldexp(1.0, -fb);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(back.flat()[i], x.flat()[i], step * 0.5 + 1e-9);
}

TEST(QTensor, QuantizeSaturates) {
  MatrixF32 x(1, 2);
  x.at(0, 0) = 1000.0f;
  x.at(0, 1) = -1000.0f;
  const auto t = quantize(x, 0, 8);
  EXPECT_EQ(t.q.at(0, 0), 127);
  EXPECT_EQ(t.q.at(0, 1), -128);
}

TEST(QTensor, ChooseFracBitsMaximizesRange) {
  MatrixF32 x(1, 1);
  x.at(0, 0) = 1.0f;
  const int fb = choose_frac_bits(x, 8);
  // 1.0 * 2^fb <= 127 < 1.0 * 2^(fb+1) -> fb = 6.
  EXPECT_EQ(fb, 6);
}

TEST(Requantize, ShiftsAndClamps) {
  MatrixI32 acc(1, 3);
  acc.at(0, 0) = 1 << 10;
  acc.at(0, 1) = 100000;
  acc.at(0, 2) = -(1 << 10) - (1 << 5);  // -1056: rounds to -33 at shift 5
  const auto out = requantize(acc, 10, 5, 8);
  EXPECT_EQ(out.at(0, 0), 32);
  EXPECT_EQ(out.at(0, 1), 127);  // clamped
  EXPECT_EQ(out.at(0, 2), -33);
}

TEST(Requantize, LargeLeftShiftsSaturateInsteadOfWrapping) {
  // A left shift of 33 or more must saturate: shifted in int64 without a
  // cap, 2^30 << 33 wraps negative and 2^30 << 34 wraps to 0.
  MatrixI32 acc(1, 3);
  acc.at(0, 0) = 1 << 30;
  acc.at(0, 1) = 3;
  acc.at(0, 2) = -5;
  for (const int out_fb : {31, 32, 33, 34, 40, 63, 64, 100}) {
    const auto out = requantize(acc, 0, out_fb, 8);
    EXPECT_EQ(out.at(0, 0), 127) << out_fb;
    EXPECT_EQ(out.at(0, 1), 127) << out_fb;
    EXPECT_EQ(out.at(0, 2), -128) << out_fb;
  }
  MatrixI32 extremes(1, 3);
  extremes.at(0, 0) = INT32_MAX;
  extremes.at(0, 1) = INT32_MIN;
  extremes.at(0, 2) = 0;
  const auto out = requantize(extremes, 0, 200, 31);
  EXPECT_EQ(out.at(0, 0), INT32_MAX >> 1);
  EXPECT_EQ(out.at(0, 1), INT32_MIN >> 1);
  EXPECT_EQ(out.at(0, 2), 0);
}

TEST(Requantize, RejectsBitsOutsideTwoToThirtyOne) {
  const MatrixI32 acc(1, 1, 5);
  EXPECT_THROW(requantize(acc, 0, 0, 1), CheckError);
  EXPECT_THROW(requantize(acc, 0, 0, 32), CheckError);
  EXPECT_THROW(requantize(acc, 0, 0, 64), CheckError);
  EXPECT_EQ(requantize(acc, 0, 0, 2).at(0, 0), 1);
  EXPECT_EQ(requantize(acc, 0, 0, 31).at(0, 0), 5);
  // Right shifts past int64 are refused as before.
  EXPECT_THROW(requantize(acc, 63, 0, 8), CheckError);
}

TEST(IntExp, ApproximatesExpForNegativeInputs) {
  const int fb = 10;
  for (double x = 0.0; x > -8.0; x -= 0.13) {
    const auto p = static_cast<std::int32_t>(std::lround(x * (1 << fb)));
    const double got = int_exp_neg(p, fb) / static_cast<double>(1 << fb);
    const double want = std::exp(x);
    EXPECT_NEAR(got, want, 0.06) << "x=" << x;
  }
}

TEST(IntExp, ZeroGivesOne) {
  EXPECT_EQ(int_exp_neg(0, 10), 1 << 10);
}

TEST(IntExp, DeepNegativeUnderflowsToZero) {
  EXPECT_EQ(int_exp_neg(-(100 << 10), 10), 0);
}

TEST(Shiftmax, RowsSumToOne) {
  Rng rng(5);
  MatrixI32 logits(6, 50);
  fill_uniform(logits, rng, -(8 << 10), 8 << 10);
  const auto p = shiftmax(logits, 10, 14);
  for (int r = 0; r < p.rows(); ++r) {
    std::int64_t sum = 0;
    for (const auto v : p.row(r)) {
      EXPECT_GE(v, 0);
      sum += v;
    }
    EXPECT_NEAR(static_cast<double>(sum), std::ldexp(1.0, 14),
                std::ldexp(1.0, 14) * 0.02);
  }
}

TEST(Shiftmax, CloseToFloatSoftmax) {
  Rng rng(6);
  const int fb = 10;
  MatrixF32 xf(4, 32);
  for (auto& v : xf.flat()) v = static_cast<float>(rng.normal(0.0, 2.0));
  MatrixI32 xi(4, 32);
  for (std::size_t i = 0; i < xf.size(); ++i)
    xi.flat()[i] =
        static_cast<std::int32_t>(std::lround(xf.flat()[i] * (1 << fb)));
  const auto got = shiftmax(xi, fb, 14);
  const auto want = softmax_ref(xf);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got.flat()[i] / std::ldexp(1.0, 14), want.flat()[i], 0.03);
}

TEST(Shiftmax, MaxElementDominatesAndOrderPreserved) {
  MatrixI32 logits(1, 3);
  logits.at(0, 0) = 0;
  logits.at(0, 1) = 5 << 10;
  logits.at(0, 2) = 2 << 10;
  const auto p = shiftmax(logits, 10, 14);
  EXPECT_GT(p.at(0, 1), p.at(0, 2));
  EXPECT_GT(p.at(0, 2), p.at(0, 0));
}

TEST(ShiftGelu, CloseToSigmoidReference) {
  Rng rng(7);
  const int fb = 10;
  MatrixF32 xf(8, 32);
  for (auto& v : xf.flat()) v = static_cast<float>(rng.uniform(-4.0, 4.0));
  MatrixI32 xi(8, 32);
  for (std::size_t i = 0; i < xf.size(); ++i)
    xi.flat()[i] =
        static_cast<std::int32_t>(std::lround(xf.flat()[i] * (1 << fb)));
  const auto got = shift_gelu(xi, fb);
  const auto want = gelu_sigmoid_ref(xf);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got.flat()[i] / std::ldexp(1.0, fb), want.flat()[i], 0.12)
        << "x=" << xf.flat()[i];
}

TEST(ShiftGelu, CloseToErfGelu) {
  // Looser bound versus the exact GELU (the sigmoid form itself differs).
  const int fb = 12;
  MatrixF32 xf(1, 81);
  for (int i = 0; i <= 80; ++i)
    xf.at(0, i) = static_cast<float>(-4.0 + 0.1 * i);
  MatrixI32 xi(1, 81);
  for (std::size_t i = 0; i < xf.size(); ++i)
    xi.flat()[i] =
        static_cast<std::int32_t>(std::lround(xf.flat()[i] * (1 << fb)));
  const auto got = shift_gelu(xi, fb);
  const auto want = gelu_erf_ref(xf);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got.flat()[i] / std::ldexp(1.0, fb), want.flat()[i], 0.15);
}

TEST(ShiftGelu, LargePositivePassesThroughLargeNegativeGoesToZero) {
  const int fb = 8;
  MatrixI32 x(1, 2);
  x.at(0, 0) = 10 << fb;
  x.at(0, 1) = -(10 << fb);
  const auto y = shift_gelu(x, fb);
  EXPECT_NEAR(y.at(0, 0), 10 << fb, 16);
  EXPECT_NEAR(y.at(0, 1), 0, 16);
}

TEST(ILayerNorm, NormalizesRows) {
  Rng rng(8);
  MatrixI32 x(4, 128);
  fill_uniform(x, rng, -2000, 2000);
  const int out_fb = 8;
  const auto y = ilayernorm(x, out_fb);
  for (int r = 0; r < y.rows(); ++r) {
    double sum = 0, sq = 0;
    for (const auto v : y.row(r)) {
      const double f = v / std::ldexp(1.0, out_fb);
      sum += f;
      sq += f * f;
    }
    const double mean = sum / y.cols();
    const double var = sq / y.cols() - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.05);
  }
}

TEST(ILayerNorm, MatchesFloatReference) {
  Rng rng(9);
  MatrixF32 xf(3, 64);
  for (auto& v : xf.flat()) v = static_cast<float>(rng.normal(1.0, 3.0));
  const int fb = 8;
  MatrixI32 xi(3, 64);
  for (std::size_t i = 0; i < xf.size(); ++i)
    xi.flat()[i] =
        static_cast<std::int32_t>(std::lround(xf.flat()[i] * (1 << fb)));
  const auto got = ilayernorm(xi, fb);
  const auto want = layernorm_ref(xf);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got.flat()[i] / std::ldexp(1.0, fb), want.flat()[i], 0.05);
}

TEST(ILayerNorm, ConstantRowMapsToZero) {
  MatrixI32 x(1, 16, 42);
  const auto y = ilayernorm(x, 8);
  for (const auto v : y.row(0)) EXPECT_EQ(v, 0);
}

TEST(ILayerNorm, AffineAppliesGammaBeta) {
  Rng rng(10);
  MatrixI32 x(2, 32);
  fill_uniform(x, rng, -1000, 1000);
  const int out_fb = 8, gb_fb = 8;
  std::vector<std::int32_t> gamma(32, 2 << gb_fb);  // gamma = 2.0
  std::vector<std::int32_t> beta(32, 3 << gb_fb);   // beta = 3.0
  const auto plain = ilayernorm(x, out_fb);
  const auto affine = ilayernorm_affine(x, out_fb, gamma, beta, gb_fb);
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_NEAR(affine.flat()[i],
                plain.flat()[i] * 2 + (3 << out_fb), 2);
}

// ---------------------------------------------------------------------------
// Bit identity against the scalar oracles (tests/epilogue_oracles.h).

// Values every requantize test row carries: the int32 extremes, zero, and
// each power of two with its neighbours.
std::vector<std::int32_t> edge_values() {
  std::vector<std::int32_t> v = {INT32_MIN, INT32_MIN + 1, INT32_MAX,
                                 INT32_MAX - 1, 0, 1, -1};
  for (int p = 1; p <= 30; ++p) {
    const std::int32_t t = std::int32_t{1} << p;
    for (const std::int32_t x : {t - 1, t, t + 1}) {
      v.push_back(x);
      v.push_back(-x);
    }
  }
  return v;
}

// A seeded matrix holding edge_values() followed by int32s of every
// magnitude.
MatrixI32 requantize_inputs(std::uint64_t seed, int rows, int cols) {
  MatrixI32 m(rows, cols);
  const auto edges = edge_values();
  Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i < edges.size()) {
      m.flat()[i] = edges[i];
      continue;
    }
    const int mag = static_cast<int>(rng.range(0, 31));
    m.flat()[i] = static_cast<std::int32_t>(
        rng.range(-(std::int64_t{1} << mag), (std::int64_t{1} << mag) - 1));
  }
  return m;
}

TEST(RequantizeOracle, EveryShiftAndWidthMatches) {
  const MatrixI32 acc = requantize_inputs(51, 13, 37);
  for (int shift = -40; shift <= 62; ++shift)
    for (const int bits : {2, 4, 8, 16, 31}) {
      const int in_fb = shift >= 0 ? shift + 3 : 3;
      const int out_fb = in_fb - shift;
      ASSERT_EQ(requantize(acc, in_fb, out_fb, bits),
                oracle::requantize_oracle(acc, in_fb, out_fb, bits))
          << "shift " << shift << " bits " << bits;
    }
}

// clamp(round((acc + bias) * 2^(out_fb - in_fb)), bits) with the sum in
// int64 and the shift in 128-bit arithmetic: requantize's arithmetic on a
// sum that may leave int32.
std::int32_t requantize_sum_reference(std::int64_t x, int in_fb, int out_fb,
                                      int bits) {
  const int shift = in_fb - out_fb;
  const __int128 v =
      shift >= 0 ? rounding_shift_unchecked(x, shift)
                 : static_cast<__int128>(x) << std::min(-shift, 32);
  const __int128 lo = signed_min(bits), hi = signed_max(bits);
  return static_cast<std::int32_t>(v < lo ? lo : (v > hi ? hi : v));
}

TEST(RequantizeOracle, InPlaceBiasSumIsExactAtEveryShift) {
  const MatrixI32 acc = requantize_inputs(56, 13, 37);
  const MatrixI32 bias_row = requantize_inputs(57, 1, 37);
  std::vector<std::int32_t> bias(bias_row.flat().begin(),
                                 bias_row.flat().end());
  bias[0] = INT32_MAX;  // sums past both int32 limits
  bias[1] = INT32_MIN;
  for (int shift = -40; shift <= 62; ++shift)
    for (const int bits : {2, 4, 8, 16, 31}) {
      const int in_fb = shift >= 0 ? shift + 3 : 3;
      const int out_fb = in_fb - shift;
      MatrixI32 got = acc;
      requantize_in_place(got, bias, in_fb, out_fb, bits);
      for (int r = 0; r < acc.rows(); ++r)
        for (int c = 0; c < acc.cols(); ++c)
          ASSERT_EQ(got.at(r, c),
                    requantize_sum_reference(
                        std::int64_t{acc.at(r, c)} +
                            bias[static_cast<std::size_t>(c)],
                        in_fb, out_fb, bits))
              << acc.at(r, c) << " + " << bias[static_cast<std::size_t>(c)]
              << ", shift " << shift << ", bits " << bits;
      MatrixI32 plain = acc;
      requantize_in_place(plain, {}, in_fb, out_fb, bits);
      ASSERT_EQ(plain, oracle::requantize_oracle(acc, in_fb, out_fb, bits));
    }
}

TEST(ShiftGeluOracle, ClampedOverWholeActivationDomain) {
  for (int fb = 1; fb <= 20; ++fb)
    for (const int bits : {2, 3, 4, 5, 6, 7, 8, 12, 16}) {
      const auto lo = signed_min(bits);
      MatrixI32 x(1, static_cast<int>(std::int64_t{1} << bits));
      for (int i = 0; i < x.cols(); ++i)
        x.at(0, i) = static_cast<std::int32_t>(lo + i);
      MatrixI32 want = oracle::shift_gelu_oracle(x, fb);
      for (auto& v : want.flat())
        v = static_cast<std::int32_t>(clamp_signed(v, bits));
      MatrixI32 got = shift_gelu(x, fb);
      for (auto& v : got.flat())
        v = static_cast<std::int32_t>(clamp_signed(v, bits));
      ASSERT_EQ(got, want) << "fb " << fb << " bits " << bits;
      ASSERT_EQ(shift_gelu_clamped(x, fb, bits), want)
          << "fb " << fb << " bits " << bits;
    }
}

TEST(ShiftGeluClamped, RejectsInputsOutsideTheDomain) {
  for (const int bits : {2, 8, 16}) {
    const auto lo = static_cast<std::int32_t>(signed_min(bits));
    const auto hi = static_cast<std::int32_t>(signed_max(bits));
    MatrixI32 x(2, 3, 0);
    x.at(1, 2) = hi;
    x.at(0, 0) = lo;
    EXPECT_NO_THROW(shift_gelu_clamped(x, 8, bits));
    for (const std::int32_t bad : {lo - 1, hi + 1, INT32_MIN, INT32_MAX}) {
      x.at(1, 1) = bad;
      EXPECT_THROW(shift_gelu_clamped(x, 8, bits), CheckError)
          << bad << " at " << bits << " bits";
    }
  }
}

TEST(ShiftGeluOracle, SeededInt32InputsMatch) {
  // Magnitudes up to 2^31, both int32 extremes included: ShiftGELU's
  // 1.702 * q sum and int_exp_neg's x * log2(e) sum run in int64, so every
  // int32 input is defined.
  Rng rng(52);
  MatrixI32 x(64, 64);
  for (int fb = 1; fb <= 20; ++fb) {
    for (auto& v : x.flat()) {
      const int mag = static_cast<int>(rng.range(0, 31));
      v = static_cast<std::int32_t>(rng.range(
          -(std::int64_t{1} << mag), (std::int64_t{1} << mag) - 1));
    }
    x.flat()[0] = INT32_MIN;
    x.flat()[1] = INT32_MAX;
    ASSERT_EQ(shift_gelu(x, fb), oracle::shift_gelu_oracle(x, fb)) << fb;
  }
}

// Rows of `cols` values centred on `base` and spanning up to `span`.
MatrixI32 layernorm_rows(Rng& rng, int rows, int cols, std::int64_t base,
                         std::int64_t span) {
  MatrixI32 x(rows, cols);
  for (auto& v : x.flat())
    v = static_cast<std::int32_t>(base + rng.range(-span / 2, span / 2));
  return x;
}

TEST(ILayerNormOracle, ConstantRowsMatch) {
  for (const std::int32_t v : {0, 1, -7, 42, INT32_MAX, INT32_MIN})
    for (const int cols : {1, 2, 7, 64, 384}) {
      const MatrixI32 x(3, cols, v);
      for (int out_fb = 0; out_fb <= 20; ++out_fb)
        ASSERT_EQ(ilayernorm(x, out_fb), oracle::ilayernorm_oracle(x, out_fb))
            << v << " x " << cols << " at " << out_fb;
    }
}

TEST(ILayerNormOracle, RowsSpanningUpToTwoToThirtyMatch) {
  // Spans and widths keep the int64 sum of squared deviations exact:
  // 2^30-wide rows have at most four columns.
  struct Shape {
    int cols;
    std::int64_t span;
  };
  const Shape shapes[] = {{1, 1 << 30},  {2, 1 << 30},  {3, 1 << 30},
                          {4, 1 << 30},  {64, 1 << 8},  {64, 1 << 27},
                          {197, 1 << 16}, {384, 1 << 8}, {384, 1 << 26}};
  Rng rng(53);
  for (const auto& s : shapes)
    for (const std::int64_t base : {std::int64_t{0}, std::int64_t{-1000},
                                    std::int64_t{1} << 29,
                                    -(std::int64_t{1} << 29)}) {
      const MatrixI32 x = layernorm_rows(rng, 5, s.cols, base, s.span);
      for (int out_fb = 0; out_fb <= 20; ++out_fb) {
        const MatrixI32 want = oracle::ilayernorm_oracle(x, out_fb);
        ASSERT_EQ(ilayernorm(x, out_fb), want)
            << s.cols << " cols, span " << s.span << ", base " << base
            << ", out_fb " << out_fb;
        for (const int bits : {1, 4, 8, 31}) {
          MatrixI32 clamped = want;
          for (auto& v : clamped.flat())
            v = static_cast<std::int32_t>(clamp_signed(v, bits));
          ASSERT_EQ(ilayernorm(x, out_fb, bits), clamped)
              << s.cols << " cols, span " << s.span << ", base " << base
              << ", out_fb " << out_fb << ", bits " << bits;
        }
      }
    }
}

TEST(ILayerNormOracle, AffineMatches) {
  Rng rng(54);
  for (const int cols : {1, 16, 384}) {
    std::vector<std::int32_t> gamma(static_cast<std::size_t>(cols));
    std::vector<std::int32_t> beta(static_cast<std::size_t>(cols));
    for (auto& g : gamma) g = static_cast<std::int32_t>(rng.range(-1024, 1024));
    for (auto& b : beta) b = static_cast<std::int32_t>(rng.range(-1024, 1024));
    const MatrixI32 x = layernorm_rows(rng, 4, cols, 100, 1 << 20);
    for (int out_fb = 0; out_fb <= 8; ++out_fb)
      for (const int gb_fb : {0, 4, 8, 12})
        ASSERT_EQ(ilayernorm_affine(x, out_fb, gamma, beta, gb_fb),
                  oracle::ilayernorm_affine_oracle(x, out_fb, gamma, beta,
                                                   gb_fb))
            << cols << " cols, out_fb " << out_fb << ", gb_fb " << gb_fb;
  }
}

TEST(ShiftmaxOracle, EveryScaleAndWidthMatches) {
  Rng rng(55);
  for (const int in_fb : {1, 4, 8, 11, 24})
    for (const int out_bits : {1, 7, 14, 24})
      for (const int cols : {1, 3, 50, 197}) {
        const std::int64_t unit = std::int64_t{1} << in_fb;
        MatrixI32 logits(7, cols);
        for (int r = 0; r < 6; ++r) {
          // Spreads of 1, 8 and 40 units; rows 3-5 put one logit 40 units
          // above the rest, so every other exponential underflows to 0.
          const std::int64_t spread = r % 3 == 0 ? 1 : (r % 3 == 1 ? 8 : 40);
          for (int c = 0; c < cols; ++c)
            logits.at(r, c) = static_cast<std::int32_t>(
                rng.range(-spread * unit, spread * unit) / 2);
          if (r >= 3) {
            for (int c = 0; c < cols; ++c)
              logits.at(r, c) = static_cast<std::int32_t>(
                  -20 * unit - rng.range(0, unit));
            logits.at(r, static_cast<int>(rng.range(0, cols - 1))) =
                static_cast<std::int32_t>(20 * unit);
          }
        }
        // Row 6 spans INT32_MIN to INT32_MAX: its deltas to the row
        // maximum reach -(2^32 - 1).
        for (int c = 0; c < cols; ++c)
          logits.at(6, c) =
              static_cast<std::int32_t>(rng.range(INT32_MIN, INT32_MAX));
        logits.at(6, 0) = INT32_MIN;
        logits.at(6, cols - 1) = INT32_MAX;
        const MatrixI32 want = oracle::shiftmax_oracle(logits, in_fb, out_bits);
        ASSERT_EQ(shiftmax(logits, in_fb, out_bits), want)
            << "in_fb " << in_fb << " out_bits " << out_bits << " cols "
            << cols;
        // Saturated as the attention does, one step below 1.0.
        const std::int32_t top = (std::int32_t{1} << out_bits) - 1;
        MatrixI32 saturated = want;
        for (auto& v : saturated.flat()) v = std::min(v, top);
        ASSERT_EQ(shiftmax(logits, in_fb, out_bits, top), saturated)
            << "in_fb " << in_fb << " out_bits " << out_bits << " cols "
            << cols;
      }
}

TEST(EpilogueKernels, RejectBadArguments) {
  const MatrixI32 m(2, 3, 5);
  EXPECT_THROW(requantize(m, 0, 0, 1), CheckError);
  EXPECT_THROW(requantize(m, 0, 0, 32), CheckError);
  EXPECT_THROW(requantize(m, 63, 0, 8), CheckError);
  EXPECT_THROW(requantize(m, 100, 10, 8), CheckError);
  EXPECT_NO_THROW(requantize(m, 62, 0, 8));
  EXPECT_NO_THROW(requantize(m, 0, 1000, 8));
  MatrixI32 acc = m;
  const std::vector<std::int32_t> three(3, 1), two(2, 1);
  EXPECT_THROW(requantize_in_place(acc, {}, 0, 0, 1), CheckError);
  EXPECT_THROW(requantize_in_place(acc, {}, 0, 0, 32), CheckError);
  EXPECT_THROW(requantize_in_place(acc, three, 63, 0, 8), CheckError);
  EXPECT_THROW(requantize_in_place(acc, two, 6, 0, 8), CheckError);
  EXPECT_NO_THROW(requantize_in_place(acc, three, 6, 0, 8));

  EXPECT_THROW(shift_gelu(m, 0), CheckError);
  EXPECT_THROW(shift_gelu(m, 21), CheckError);
  EXPECT_THROW(shift_gelu_clamped(m, 0, 8), CheckError);
  EXPECT_THROW(shift_gelu_clamped(m, 21, 8), CheckError);
  EXPECT_THROW(shift_gelu_clamped(m, 8, 1), CheckError);
  EXPECT_THROW(shift_gelu_clamped(m, 8, 17), CheckError);

  EXPECT_THROW(shiftmax(m, 0, 8), CheckError);
  EXPECT_THROW(shiftmax(m, 25, 8), CheckError);
  EXPECT_THROW(shiftmax(m, 8, 0), CheckError);
  EXPECT_THROW(shiftmax(m, 8, 25), CheckError);
  EXPECT_THROW(shiftmax(MatrixI32(2, 0), 8, 8), CheckError);

  EXPECT_THROW(ilayernorm(m, -1), CheckError);
  EXPECT_THROW(ilayernorm(m, 21), CheckError);
  EXPECT_THROW(ilayernorm(MatrixI32(2, 0), 8), CheckError);
  EXPECT_THROW(ilayernorm(m, 8, 0), CheckError);
  EXPECT_THROW(ilayernorm(m, 8, 33), CheckError);
  EXPECT_THROW(ilayernorm_affine(m, 8, two, three, 8), CheckError);
  EXPECT_THROW(ilayernorm_affine(m, 8, three, two, 8), CheckError);
  EXPECT_THROW(ilayernorm_affine(m, 8, three, three, -1), CheckError);
  EXPECT_THROW(ilayernorm_affine(m, 8, three, three, 21), CheckError);
  EXPECT_THROW(ilayernorm_affine(m, 21, three, three, 8), CheckError);
}

}  // namespace
}  // namespace vitbit::quant
