#include "quant/int_div.h"

#include "common/check.h"
#include "common/int_math.h"

namespace vitbit::quant {

std::int64_t int_reciprocal(std::int64_t d, int frac_bits) {
  VITBIT_CHECK(d >= 1);
  VITBIT_CHECK(frac_bits >= 1 && frac_bits <= 30);
  const std::int64_t one = std::int64_t{1} << frac_bits;
  if (d == 1) return one;
  // Past 2^frac_bits the quotient is below 1 and rounds to 1 or 0; the
  // power-of-two seed below would be 0, from which Newton-Raphson diverges.
  if (d > one) return 2 * one >= d ? 1 : 0;
  // Seed: 2^frac / 2^ceil(log2 d) — within 2x of the true reciprocal, which
  // Newton-Raphson then doubles in precision per step.
  const int lead = ilog2(static_cast<std::uint64_t>(d)) + 1;
  std::int64_t r = one >> lead;
  if (r == 0) r = 1;
  // r <- r * (2*one - d*r) / one, keeping d*r at full precision (shifting
  // it first would zero the correction for small d). Five steps cover 30
  // fraction bits from the power-of-two seed.
  for (int it = 0; it < 5; ++it) {
    const std::int64_t t = 2 * one - d * r;  // |t| <= 2^(fb+1)
    r = static_cast<std::int64_t>(
        (static_cast<__int128>(r) * t) >> frac_bits);
  }
  // Truncation leaves r within one ULP below; settle on round(one / d).
  while (d * (r + 1) <= one) ++r;
  while (d * r > one) --r;
  if (2 * (one - d * r) >= d) ++r;
  return r;
}

std::int64_t int_div_rounded(std::int64_t n, std::int64_t d) {
  VITBIT_CHECK(n >= 0);
  VITBIT_CHECK(d >= 1);
  if (n == 0) return 0;  // skips the reciprocal
  return IntDivisor(d).div_rounded(n);
}

namespace {

// floor(2^(62 + w) / d) for d in [2^(w-1), 2^w), integer-only. Newton-
// Raphson first finds r = round(2^(29 + w) / d), a 30-bit reciprocal
// normalized to d's width (in (2^29, 2^30]). Scaling r by 2^33 starts the
// quotient within 2^32 of the target; each remainder step adds about 30
// correct bits, so after two the settle loops run at most a step or two.
// Every product stays below 2^127.
std::uint64_t scaled_reciprocal(std::int64_t d, int w) {
  using i128 = __int128;
  const int s = 29 + w;
  const i128 one = i128{1} << s;
  i128 r = i128{1} << 29;  // within 2x of one / d
  for (int it = 0; it < 5; ++it) r = (r * (2 * one - d * r)) >> s;
  while (d * (r + 1) <= one) ++r;
  while (d * r > one) --r;
  if (2 * (one - d * r) >= d) ++r;

  const i128 num = i128{1} << (62 + w);
  i128 m = r << 33;
  for (int it = 0; it < 2; ++it) m += ((num - m * d) * r) >> s;
  while (m * d > num) --m;
  while ((m + 1) * d <= num) ++m;
  return static_cast<std::uint64_t>(m);
}

}  // namespace

IntDivisor::IntDivisor(std::int64_t d) : d_(static_cast<std::uint64_t>(d)) {
  VITBIT_CHECK(d >= 1);
  const int w = ilog2(static_cast<std::uint64_t>(d)) + 1;
  shift_ = 62 + w;
  magic_ = scaled_reciprocal(d, w);
}

}  // namespace vitbit::quant
