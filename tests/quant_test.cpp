#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
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

}  // namespace
}  // namespace vitbit::quant
