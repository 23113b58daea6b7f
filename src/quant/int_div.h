// Integer division primitives for the integer-only inference path. GPUs
// have no hardware integer divider — `a / b` compiles to a long emulation
// sequence — so I-ViT-class kernels divide through a Newton-Raphson
// reciprocal in fixed point. This module provides that primitive and an
// exact-rounding division built on it, so the softmax normalization is an
// honest integer-only instruction stream.
#pragma once

#include <cstdint>

namespace vitbit::quant {

// Fixed-point reciprocal: returns round(2^frac_bits / d) for d >= 1,
// computed with shifts/multiplies only (Newton-Raphson on r <- r(2 - d*r),
// seeded from the leading-bit position). frac_bits <= 30.
std::int64_t int_reciprocal(std::int64_t d, int frac_bits);

// round(n / d) for n >= 0, d >= 1, via the fixed-point reciprocal with a
// final correction step that makes the result exact (never off by one).
std::int64_t int_div_rounded(std::int64_t n, std::int64_t d);

// A divisor d >= 1 with its fixed-point reciprocal, for dividing many
// numerators by one d (a softmax row by its sum): the Newton steps run
// once, in the constructor, and each division keeps the exact correction.
class IntDivisor {
 public:
  explicit IntDivisor(std::int64_t d);

  // round(n / d) for n >= 0; equals int_div_rounded(n, d).
  std::int64_t div_rounded(std::int64_t n) const;

 private:
  std::int64_t d_;
  std::int64_t recip_;
};

}  // namespace vitbit::quant
