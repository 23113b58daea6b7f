#include "quant/shift_gelu.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/int_math.h"
#include "quant/fixed_point.h"
#include "quant/int_exp.h"

namespace vitbit::quant {

MatrixI32 shift_gelu(const MatrixI32& x, int fb) {
  VITBIT_CHECK(fb >= 1 && fb <= 20);
  MatrixI32 out(x.rows(), x.cols());
  const std::int32_t one = std::int32_t{1} << fb;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int32_t q = x.flat()[i];
    // 1.702*x by shifts: 1 + 1/2 + 1/8 + 1/16 + 1/128 = 1.6953, summed in
    // int64 since it exceeds int32 for |q| above about 2^30.2.
    const std::int64_t y =
        std::int64_t{q} + (q >> 1) + (q >> 3) + (q >> 4) + (q >> 7);
    const std::int64_t n = y < 0 ? y : -y;  // -|y|
    const std::int32_t e = int_exp_neg(n, fb);
    const std::int64_t denom = static_cast<std::int64_t>(one) + e;
    const std::int64_t num =
        (static_cast<std::int64_t>(y < 0 ? e : one) << fb) + denom / 2;
    const auto sigma = static_cast<std::int32_t>(num / denom);  // [0, 2^fb]
    out.flat()[i] = rounding_shift(static_cast<std::int64_t>(q) * sigma, fb);
  }
  return out;
}

MatrixI32 shift_gelu_clamped(MatrixI32 x, int fb, int bits) {
  VITBIT_CHECK(bits >= 2 && bits <= 16);
  const auto lo = static_cast<std::int32_t>(signed_min(bits));
  const std::uint32_t size = std::uint32_t{1} << bits;
  MatrixI32 table(1, static_cast<int>(size));
  for (std::uint32_t i = 0; i < size; ++i)
    table.flat()[i] = lo + static_cast<std::int32_t>(i);
  table = shift_gelu(table, fb);
  for (auto& v : table.flat())
    v = static_cast<std::int32_t>(clamp_signed(v, bits));
  // v - lo indexes the table exactly when v is in the domain; the mask keeps
  // every read inside it and one check after the pass rejects the rest.
  std::uint32_t top = 0;
  for (auto& v : x.flat()) {
    const std::uint32_t i =
        static_cast<std::uint32_t>(v) - static_cast<std::uint32_t>(lo);
    top = std::max(top, i);
    v = table.flat()[i & (size - 1)];
  }
  VITBIT_CHECK_MSG(top < size, "shift_gelu_clamped: an input lies outside "
                                   "the " << bits << "-bit domain");
  return x;
}

MatrixF32 gelu_sigmoid_ref(const MatrixF32& x) {
  MatrixF32 out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x.flat()[i];
    out.flat()[i] = static_cast<float>(v / (1.0 + std::exp(-1.702 * v)));
  }
  return out;
}

MatrixF32 gelu_erf_ref(const MatrixF32& x) {
  MatrixF32 out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x.flat()[i];
    out.flat()[i] =
        static_cast<float>(0.5 * v * (1.0 + std::erf(v / std::sqrt(2.0))));
  }
  return out;
}

}  // namespace vitbit::quant
