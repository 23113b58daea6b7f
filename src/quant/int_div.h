// Integer division primitives for the integer-only inference path. GPUs
// have no hardware integer divider — `a / b` compiles to a long emulation
// sequence — so I-ViT-class kernels divide through a Newton-Raphson
// reciprocal in fixed point. This module provides that primitive and an
// exact-rounding division built on it, so the softmax normalization is an
// honest integer-only instruction stream.
#pragma once

#include <cstdint>

#include "common/check.h"

namespace vitbit::quant {

// Fixed-point reciprocal: returns round(2^frac_bits / d) for d >= 1,
// computed with shifts/multiplies only (Newton-Raphson on r <- r(2 - d*r),
// seeded from the leading-bit position). frac_bits <= 30.
std::int64_t int_reciprocal(std::int64_t d, int frac_bits);

// round(n / d) for n >= 0, d >= 1, via the fixed-point reciprocal with a
// final correction step that makes the result exact (never off by one).
std::int64_t int_div_rounded(std::int64_t n, std::int64_t d);

// A divisor d >= 1 with its fixed-point reciprocal, for dividing many
// numerators by one d (a softmax row by its sum, a LayerNorm row by its
// standard deviation). The constructor derives m = floor(2^(62 + w) / d),
// w the bit width of d, from a 30-bit Newton-Raphson reciprocal and two
// refinement steps on the remainder; each division is then one 64x64-bit
// multiply, a shift and one correction step, exact for every n >= 0.
class IntDivisor {
 public:
  explicit IntDivisor(std::int64_t d);

  // round(n / d), half up, for n >= 0; equals int_div_rounded(n, d).
  std::int64_t div_rounded(std::int64_t n) const {
    VITBIT_CHECK(n >= 0);
    const auto un = static_cast<std::uint64_t>(n);
    // floor(n * m / 2^shift) is floor(n / d) or one below it.
    auto q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(un) * magic_) >> shift_);
    std::uint64_t rem = un - q * d_;  // in [0, 2d)
    if (rem >= d_) {
      ++q;
      rem -= d_;
    }
    if (rem >= d_ - rem) ++q;  // half rounds up
    return static_cast<std::int64_t>(q);
  }

 private:
  std::uint64_t d_;
  std::uint64_t magic_;  // floor(2^shift_ / d_), in (2^62, 2^63]
  int shift_;            // 62 + bit width of d_
};

}  // namespace vitbit::quant
