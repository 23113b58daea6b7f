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

namespace {
// Reciprocal precision of int_div_rounded: enough for the numerators the
// integer-only kernels divide.
constexpr int kDivFracBits = 30;
}  // namespace

std::int64_t int_div_rounded(std::int64_t n, std::int64_t d) {
  VITBIT_CHECK(n >= 0);
  VITBIT_CHECK(d >= 1);
  if (n == 0) return 0;  // skips the reciprocal
  return IntDivisor(d).div_rounded(n);
}

IntDivisor::IntDivisor(std::int64_t d)
    : d_(d), recip_(int_reciprocal(d, kDivFracBits)) {}

std::int64_t IntDivisor::div_rounded(std::int64_t n) const {
  VITBIT_CHECK(n >= 0);
  if (n == 0) return 0;  // common in softmax rows: exps that underflow
  // Approximate quotient, then exact correction by at most a few steps
  // (the reciprocal is within a couple of ULPs).
  std::int64_t q = static_cast<std::int64_t>(
      (static_cast<__int128>(n) * recip_) >> kDivFracBits);
  while (q * d_ > n) --q;
  while ((q + 1) * d_ <= n) ++q;
  // q = floor(n/d); round half away from zero.
  const std::int64_t rem = n - q * d_;
  if (2 * rem >= d_) ++q;
  return q;
}

}  // namespace vitbit::quant
