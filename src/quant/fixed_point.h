// Dyadic fixed-point arithmetic: every runtime scale in the integer-only
// inference path is (mult / 2^shift), so rescaling is one integer multiply
// plus a rounding shift — exactly what an INT ALU can do (I-ViT's approach).
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/int_math.h"

namespace vitbit::quant {

struct Dyadic {
  std::int32_t mult = 1;
  int shift = 0;  // value = mult / 2^shift

  double to_double() const {
    return static_cast<double>(mult) /
           static_cast<double>(std::int64_t{1} << shift);
  }
};

// Closest dyadic representation of `v` with a multiplier of at most
// `mult_bits` significant bits. v must be positive.
Dyadic dyadic_from_double(double v, int mult_bits = 15);

// round(x * d.mult / 2^d.shift) with round-half-away-from-zero, computed in
// int64 (the GPU equivalent: IMAD.WIDE + SHF + rounding add).
std::int32_t dyadic_mul(std::int32_t x, const Dyadic& d);

// round(x / 2^shift), round-half-away-from-zero, without range checks:
// the caller guarantees 0 <= shift < 63. Branch-free: for x < 0 (and
// shift >= 1) the arithmetic shift of x + half - 1 equals the
// sign-magnitude form -((-x + half) >> shift).
inline std::int64_t rounding_shift_unchecked(std::int64_t x, int shift) {
  const std::int64_t half = (std::int64_t{1} << shift) >> 1;
  return (x + half - static_cast<std::int64_t>(x < 0 && shift >= 1)) >>
         shift;
}

// round(x / 2^shift), round-half-away-from-zero. Throws CheckError unless
// 0 <= shift < 63 and the result fits int32.
inline std::int32_t rounding_shift(std::int64_t x, int shift) {
  VITBIT_CHECK(shift >= 0 && shift < 63);
  const std::int64_t r = rounding_shift_unchecked(x, shift);
  VITBIT_CHECK_MSG(r >= INT32_MIN && r <= INT32_MAX,
                   "rounding_shift overflow: " << x << " >> " << shift);
  return static_cast<std::int32_t>(r);
}

// Integer square root: floor(sqrt(x)) via Newton iterations (I-LayerNorm's
// bit-shift sqrt). x >= 0.
std::int64_t isqrt(std::int64_t x);

}  // namespace vitbit::quant
