#include "quant/fixed_point.h"

#include <cmath>

namespace vitbit::quant {

Dyadic dyadic_from_double(double v, int mult_bits) {
  VITBIT_CHECK_MSG(v > 0.0, "dyadic scale must be positive, got " << v);
  VITBIT_CHECK(mult_bits >= 1 && mult_bits <= 30);
  // Normalize v * 2^shift into [2^(mult_bits-1), 2^mult_bits).
  int shift = 0;
  double scaled = v;
  while (scaled < static_cast<double>(std::int64_t{1} << (mult_bits - 1)) &&
         shift < 62) {
    scaled *= 2.0;
    ++shift;
  }
  while (scaled >= static_cast<double>(std::int64_t{1} << mult_bits) &&
         shift > -62) {
    scaled /= 2.0;
    --shift;
  }
  VITBIT_CHECK_MSG(shift >= 0, "scale " << v << " too large for dyadic form");
  Dyadic d;
  d.mult = static_cast<std::int32_t>(std::llround(scaled));
  d.shift = shift;
  return d;
}

std::int32_t dyadic_mul(std::int32_t x, const Dyadic& d) {
  return rounding_shift(static_cast<std::int64_t>(x) * d.mult, d.shift);
}

std::int64_t isqrt(std::int64_t x) {
  VITBIT_CHECK(x >= 0);
  if (x < 2) return x;
  // Newton's method from a power-of-two seed >= sqrt(x); monotonically
  // decreasing, converges in <= ~40 iterations for 63-bit inputs.
  std::int64_t guess = std::int64_t{1}
                       << ((ilog2(static_cast<std::uint64_t>(x)) / 2) + 1);
  while (true) {
    const std::int64_t next = (guess + x / guess) >> 1;
    if (next >= guess) break;
    guess = next;
  }
  return guess;
}

}  // namespace vitbit::quant
