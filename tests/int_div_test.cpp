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
  // over the softmax ranges and beyond, numerators up to 2^48.
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

// round(n / d), half up, in plain 128-bit arithmetic.
std::int64_t rounded_quotient(std::int64_t n, std::int64_t d) {
  return static_cast<std::int64_t>((2 * static_cast<__int128>(n) + d) /
                                   (2 * static_cast<__int128>(d)));
}

TEST(IntDivisor, MatchesInt128RoundedDivision) {
  // Divisors of every width and numerators of every magnitude up to 2^62,
  // plus the int64 extremes: one multiply and one correction step each.
  Rng rng(4);
  std::vector<std::int64_t> divisors = {1, 2, 3, 5, 7, 1000003, INT64_MAX,
                                        INT64_MAX - 1};
  for (int w = 1; w <= 63; ++w) {
    const std::int64_t lo = std::int64_t{1} << (w - 1);
    divisors.push_back(lo);
    divisors.push_back(lo + (lo - 1));  // 2^w - 1
    divisors.push_back(rng.range(lo, lo + (lo - 1)));
  }
  for (const std::int64_t d : divisors) {
    const IntDivisor div(d);
    std::vector<std::int64_t> numerators = {0, 1, d - 1, d, d / 2,
                                            INT64_MAX, INT64_MAX - 1};
    if (d <= INT64_MAX / 3) {
      numerators.push_back(2 * d + d / 2);      // a tie when d is even
      numerators.push_back(2 * d + d / 2 + 1);
      numerators.push_back(3 * d - 1);
    }
    for (int p = 0; p <= 62; ++p) numerators.push_back(std::int64_t{1} << p);
    for (int i = 0; i < 200; ++i) {
      const int bits = static_cast<int>(rng.range(1, 62));
      numerators.push_back(rng.range(0, (std::int64_t{1} << bits) - 1));
    }
    for (const std::int64_t n : numerators)
      ASSERT_EQ(div.div_rounded(n), rounded_quotient(n, d))
          << n << " / " << d;
  }
}

}  // namespace
}  // namespace vitbit::quant
