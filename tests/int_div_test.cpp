#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "quant/int_div.h"

namespace vitbit::quant {
namespace {

TEST(IntReciprocal, SmallDivisorsExactish) {
  const int fb = 20;
  for (std::int64_t d = 1; d <= 64; ++d) {
    const std::int64_t r = int_reciprocal(d, fb);
    const std::int64_t want = (std::int64_t{1} << fb) / d;
    EXPECT_NEAR(static_cast<double>(r), static_cast<double>(want), 2.0)
        << "d=" << d;
  }
}

TEST(IntReciprocal, PowersOfTwoExact) {
  for (int p = 0; p <= 20; ++p)
    EXPECT_EQ(int_reciprocal(std::int64_t{1} << p, 24),
              std::int64_t{1} << (24 - p));
}

TEST(IntReciprocal, DivisorsPastOneRoundToOneOrZero) {
  // round(2^30 / d) for d > 2^30: 1 up to 2^31 (half rounds up), then 0.
  EXPECT_EQ(int_reciprocal(std::int64_t{1} << 30, 30), 1);
  EXPECT_EQ(int_reciprocal((std::int64_t{1} << 30) + 1, 30), 1);
  EXPECT_EQ(int_reciprocal(std::int64_t{1} << 31, 30), 1);
  EXPECT_EQ(int_reciprocal((std::int64_t{1} << 31) + 1, 30), 0);
  for (int p = 32; p <= 62; p += 10)
    EXPECT_EQ(int_reciprocal(std::int64_t{1} << p, 30), 0) << p;
  const std::int64_t big = std::int64_t{1} << 48;
  EXPECT_EQ(int_div_rounded(big, std::int64_t{1} << 32), 65536);
  EXPECT_EQ(int_div_rounded(3 * (big >> 8) + 1, std::int64_t{1} << 33), 384);
}

TEST(IntDivRounded, MatchesRoundedDivision) {
  Rng rng(1);
  for (int trial = 0; trial < 5000; ++trial) {
    const std::int64_t n = rng.range(0, 1 << 26);
    const std::int64_t d = rng.range(1, 1 << 20);
    const std::int64_t got = int_div_rounded(n, d);
    const std::int64_t want = (2 * (n % d) >= d) ? n / d + 1 : n / d;
    ASSERT_EQ(got, want) << n << " / " << d;
  }
}

TEST(IntDivRounded, EdgeCases) {
  EXPECT_EQ(int_div_rounded(0, 7), 0);
  EXPECT_EQ(int_div_rounded(7, 7), 1);
  EXPECT_EQ(int_div_rounded(10, 4), 3);   // 2.5 rounds up
  EXPECT_EQ(int_div_rounded(9, 4), 2);    // 2.25 rounds down
  EXPECT_EQ(int_div_rounded(1, 1000000), 0);
  EXPECT_EQ(int_div_rounded((std::int64_t{1} << 40), 1),
            std::int64_t{1} << 40);
}

TEST(IntDivRounded, SoftmaxScaleRange) {
  // The exact shapes shiftmax uses: numerators up to 2^(in_fb+out_bits),
  // denominators up to cols * 2^in_fb.
  Rng rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::int64_t e = rng.range(0, 1 << 14);
    const std::int64_t n = e << 14;
    const std::int64_t d = rng.range(1, 200 << 14);
    const std::int64_t want = (2 * (n % d) >= d) ? n / d + 1 : n / d;
    ASSERT_EQ(int_div_rounded(n, d), want);
  }
}

TEST(IntDivRounded, RejectsBadArguments) {
  EXPECT_THROW(int_div_rounded(-1, 2), CheckError);
  EXPECT_THROW(int_div_rounded(1, 0), CheckError);
  EXPECT_THROW(int_reciprocal(0, 20), CheckError);
  EXPECT_THROW(IntDivisor(0), CheckError);
  EXPECT_THROW(IntDivisor(3).div_rounded(-1), CheckError);
}

TEST(IntDivisor, MatchesIntDivRounded) {
  // One reciprocal per divisor, reused for every numerator: seeded pairs
  // over the softmax ranges and beyond, numerators up to 2^48. (Past about
  // 2^36 the quotient's correction takes up to n / 2^31 steps in both
  // forms, so only the powers of two go that far.)
  Rng rng(3);
  std::vector<std::int64_t> divisors = {1, 2, 3, 7, 1000003};
  for (int p = 0; p <= 40; p += 5) divisors.push_back(std::int64_t{1} << p);
  for (int i = 0; i < 40; ++i) divisors.push_back(rng.range(1, 1 << 22));
  for (const std::int64_t d : divisors) {
    const IntDivisor div(d);
    std::vector<std::int64_t> numerators = {0, 1, d - 1, d, 2 * d + d / 2};
    for (int p = 0; p <= 48; p += 8) numerators.push_back(std::int64_t{1} << p);
    for (int i = 0; i < 20; ++i) {
      const int bits = static_cast<int>(rng.range(1, 36));
      numerators.push_back(rng.range(0, (std::int64_t{1} << bits) - 1));
    }
    for (const std::int64_t n : numerators)
      ASSERT_EQ(div.div_rounded(n), int_div_rounded(n, d)) << n << " / " << d;
  }
}

}  // namespace
}  // namespace vitbit::quant
