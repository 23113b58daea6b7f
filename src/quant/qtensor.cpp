#include "quant/qtensor.h"

#include <algorithm>
#include <cmath>
#include <vector>

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
  MatrixI32 out = acc;
  requantize_in_place(out, {}, in_fb, out_fb, bits);
  return out;
}

void requantize_in_place(MatrixI32& acc, std::span<const std::int32_t> bias,
                         int in_fb, int out_fb, int bits) {
  VITBIT_CHECK(bits >= 2 && bits <= 31);
  VITBIT_CHECK(bias.empty() || static_cast<int>(bias.size()) == acc.cols());
  const int shift = in_fb - out_fb;
  VITBIT_CHECK(shift < 63);
  using i128 = __int128;
  const auto lo = static_cast<std::int32_t>(signed_min(bits));
  const auto hi = static_cast<std::int32_t>(signed_max(bits));

  // Every sum x = acc + bias has |x| <= 2^32, so right shifts past 34 all
  // round to 0 like 34 does, and a left shift of bits - 1 or more already
  // saturates every nonzero x: capping both changes no result.
  const int s = shift >= 0 ? std::min(shift, 34) : 0;
  const int left = shift < 0 ? std::min(-shift, bits - 1) : 0;
  // The right shift runs as floor((x + c1 - neg) / 2^k), then a rounding
  // shift by j = s - k: k <= 30 keeps each low-part sum inside int32.
  // neg = [x < 0] makes halves round away from zero.
  const int k = std::min(s, 30);
  const int j = s - k;
  const std::int64_t c1 = j == 0 && s >= 1 ? std::int64_t{1} << (s - 1) : 0;
  const std::int32_t c2 = j > 0 ? std::int32_t{1} << (j - 1) : 0;
  const std::int32_t neg_on = s >= 1 ? -1 : 0;
  const auto low_mask = static_cast<std::int32_t>((std::int64_t{1} << k) - 1);
  // Outside [x_lo, x_hi] every output saturates: clamping x there first
  // keeps each result and bounds the s == 0 and left-shift sums to int32.
  const i128 unit = i128{1} << s;
  const i128 x_lo = shift < 0 ? i128{lo >> left}
                    : s == 0  ? i128{lo}
                              : (i128{lo} + 1) * unit - unit / 2;
  const i128 x_hi =
      shift < 0 ? i128{(hi >> left) + 1} : i128{hi} * unit - unit / 2;
  const auto sat32 = [](i128 v) {
    return static_cast<std::int32_t>(std::clamp<i128>(v, INT32_MIN, INT32_MAX));
  };

  // Per column: the clamp bounds of acc, ~bias (x < 0 iff acc <= ~bias),
  // and bias + c1 split at k bits into high and low parts.
  const auto cols = static_cast<std::size_t>(acc.cols());
  std::vector<std::int32_t> a_lo(cols), a_hi(cols), not_b(cols), b_hi(cols),
      b_lo(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const std::int32_t b = bias.empty() ? 0 : bias[c];
    a_lo[c] = sat32(x_lo - b);
    a_hi[c] = sat32(x_hi - b);
    not_b[c] = ~b;
    const std::int64_t bc = b + c1;
    b_hi[c] = static_cast<std::int32_t>(bc >> k);
    b_lo[c] = static_cast<std::int32_t>(bc & low_mask);
  }

  for (int r = 0; r < acc.rows(); ++r) {
    std::int32_t* const row = acc.row(r).data();
    for (std::size_t c = 0; c < cols; ++c) {
      const std::int32_t a = std::min(std::max(row[c], a_lo[c]), a_hi[c]);
      const std::int32_t neg = a <= not_b[c] ? neg_on : 0;
      // Both partial sums of q are exact values inside int32.
      const std::int32_t carry = ((a & low_mask) + b_lo[c] + neg) >> k;
      const std::int32_t q = (a >> k) + b_hi[c] + carry;
      const auto v = static_cast<std::int32_t>(
          static_cast<std::uint32_t>((q + c2) >> j) << left);
      row[c] = std::min(std::max(v, lo), hi);
    }
  }
}

}  // namespace vitbit::quant
