#include "quant/qtensor.h"

#include <algorithm>
#include <cmath>

#include "common/int_math.h"
#include "quant/fixed_point.h"

namespace vitbit::quant {

QTensor quantize(const MatrixF32& x, int frac_bits, int bits) {
  VITBIT_CHECK(bits >= 2 && bits <= 31);
  QTensor t;
  t.frac_bits = frac_bits;
  t.q = MatrixI32(x.rows(), x.cols());
  const double s = std::ldexp(1.0, frac_bits);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto v = static_cast<std::int64_t>(std::llround(x.flat()[i] * s));
    t.q.flat()[i] = static_cast<std::int32_t>(clamp_signed(v, bits));
  }
  return t;
}

MatrixF32 dequantize(const QTensor& t) {
  MatrixF32 x(t.q.rows(), t.q.cols());
  const double s = std::ldexp(1.0, -t.frac_bits);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.flat()[i] = static_cast<float>(t.q.flat()[i] * s);
  return x;
}

int choose_frac_bits(const MatrixF32& x, int bits) {
  double maxabs = 0.0;
  for (const auto v : x.flat())
    maxabs = std::max(maxabs, std::abs(static_cast<double>(v)));
  if (maxabs == 0.0) return 0;
  // Largest f with maxabs * 2^f <= signed_max(bits).
  int f = 0;
  while (maxabs * std::ldexp(1.0, f + 1) <=
             static_cast<double>(signed_max(bits)) &&
         f < 24)
    ++f;
  while (maxabs * std::ldexp(1.0, f) > static_cast<double>(signed_max(bits)) &&
         f > -24)
    --f;
  return f;
}

MatrixI32 requantize(const MatrixI32& acc, int in_fb, int out_fb, int bits) {
  VITBIT_CHECK(bits >= 2 && bits <= 31);
  MatrixI32 out(acc.rows(), acc.cols());
  const auto in = acc.flat();
  const auto dst = out.flat();
  const int shift = in_fb - out_fb;
  if (shift >= 0) {
    // The shift is checked once; a rounded int32 always fits int32, so
    // rounding_shift's per-value overflow check cannot fire here.
    VITBIT_CHECK(shift < 63);
    for (std::size_t i = 0; i < in.size(); ++i)
      dst[i] = static_cast<std::int32_t>(
          clamp_signed(rounding_shift_unchecked(in[i], shift), bits));
  } else {
    // |v| < 2^31, so v << 32 still fits int64 and any nonzero v shifted
    // that far already saturates every bits <= 31: capping the shift at 32
    // keeps the result and avoids wrapping int64.
    const int left = std::min(-shift, 32);
    for (std::size_t i = 0; i < in.size(); ++i)
      dst[i] = static_cast<std::int32_t>(
          clamp_signed(static_cast<std::int64_t>(in[i]) << left, bits));
  }
  return out;
}

}  // namespace vitbit::quant
