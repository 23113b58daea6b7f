// Shared integer exponential approximation (I-ViT): computes exp(x) for
// x <= 0 using only shifts and adds.
//
//   exp(x) = 2^(x * log2 e),  x*log2e ~= x + (x>>1) - (x>>4)   (log2e ~ 1.4375)
//   2^(-q - r) for integer q and fractional r in [0,1):
//            ~= (1 - r/2) >> q                                  (I-ViT eq. 5)
//
// All values carry `fb` fraction bits.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/int_math.h"

namespace vitbit::quant {

// x * log2(e) by shifts (x may be negative; arithmetic shifts round toward
// -inf, which is fine for an approximation used symmetrically). The sum is
// 1.4375 * x, so it is defined for |x| <= 2^62.
inline std::int64_t shift_log2e(std::int64_t x) {
  return x + (x >> 1) - (x >> 4);
}

// Integer exp(p) for -2^62 <= p <= 0 at `fb` fraction bits; returns a value
// in [0, 2^fb] also at `fb` fraction bits (0 once it underflows). The range
// covers every difference of two int32 values and ShiftGELU's 1.702 * q.
inline std::int32_t int_exp_neg(std::int64_t p, int fb) {
  VITBIT_CHECK(p <= 0 && p >= -(std::int64_t{1} << 62));
  VITBIT_CHECK(fb >= 1 && fb <= 24);
  const std::int64_t t = -shift_log2e(p);  // -p*log2e >= 0, fb fraction bits
  const std::int32_t one = std::int32_t{1} << fb;
  const std::int64_t qint = t >> fb;                     // integer part
  const std::int64_t r = t & low_mask32(fb);             // fractional part
  if (qint >= 31) return 0;                              // underflow
  const std::int64_t base = one - (r >> 1);              // 2^-r ~ 1 - r/2
  return static_cast<std::int32_t>(base >> qint);
}

}  // namespace vitbit::quant
