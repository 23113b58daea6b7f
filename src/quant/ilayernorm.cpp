#include "quant/ilayernorm.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/int_math.h"
#include "quant/fixed_point.h"
#include "quant/int_div.h"

namespace vitbit::quant {

namespace {
// Normalizes one row into `out` at out_fb fraction bits, clamped to
// [lo, hi].
void normalize_row(std::span<const std::int32_t> row,
                   std::span<std::int32_t> out, int out_fb, std::int64_t lo,
                   std::int64_t hi) {
  const auto n = static_cast<std::int64_t>(row.size());
  std::int64_t sum = 0;
  for (const auto v : row) sum += v;
  // Rounded mean.
  const std::int64_t mean =
      sum >= 0 ? (sum + n / 2) / n : -((-sum + n / 2) / n);
  std::int64_t var_acc = 0;
  for (const auto v : row) {
    const std::int64_t d = v - mean;
    var_acc += d * d;
  }
  const std::int64_t var = var_acc / n + 1;  // +1 guards division by zero
  // (|d| + floor(sd / 2)) / sd is round(|d| / sd) with halves away from
  // zero for every sd >= 1, odd or even: one reciprocal serves the row.
  const IntDivisor stddev(isqrt(var));
  for (std::size_t i = 0; i < row.size(); ++i) {
    const std::int64_t d = (static_cast<std::int64_t>(row[i]) - mean)
                           << out_fb;
    const std::int64_t m = stddev.div_rounded(d < 0 ? -d : d);
    const std::int64_t q = d < 0 ? -m : m;
    VITBIT_DCHECK(q >= INT32_MIN && q <= INT32_MAX);
    out[i] = static_cast<std::int32_t>(std::clamp(q, lo, hi));
  }
}
}  // namespace

MatrixI32 ilayernorm(const MatrixI32& x, int out_fb, int bits) {
  VITBIT_CHECK(out_fb >= 0 && out_fb <= 20);
  VITBIT_CHECK(x.cols() >= 1);
  VITBIT_CHECK(bits >= 1 && bits <= 32);
  const std::int64_t lo = bits < 32 ? signed_min(bits) : INT64_MIN;
  const std::int64_t hi = bits < 32 ? signed_max(bits) : INT64_MAX;
  MatrixI32 out(x.rows(), x.cols());
  for (int r = 0; r < x.rows(); ++r)
    normalize_row(x.row(r), out.row(r), out_fb, lo, hi);
  return out;
}

MatrixI32 ilayernorm_affine(const MatrixI32& x, int out_fb,
                            std::span<const std::int32_t> gamma,
                            std::span<const std::int32_t> beta, int gb_fb) {
  VITBIT_CHECK(static_cast<int>(gamma.size()) == x.cols());
  VITBIT_CHECK(static_cast<int>(beta.size()) == x.cols());
  VITBIT_CHECK(gb_fb >= 0 && gb_fb <= 20);
  MatrixI32 out = ilayernorm(x, out_fb);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      // out*gamma (gb_fb fraction bits cancel via shift) + beta at out_fb.
      const std::int64_t scaled =
          static_cast<std::int64_t>(out.at(r, c)) *
          gamma[static_cast<std::size_t>(c)];
      const std::int64_t beta_q =
          static_cast<std::int64_t>(beta[static_cast<std::size_t>(c)])
          << (out_fb > gb_fb ? out_fb - gb_fb : 0);
      std::int64_t v = rounding_shift(scaled, gb_fb);
      v += gb_fb > out_fb ? (beta_q >> (gb_fb - out_fb)) : beta_q;
      VITBIT_DCHECK(v >= INT32_MIN && v <= INT32_MAX);
      out.at(r, c) = static_cast<std::int32_t>(v);
    }
  }
  return out;
}

MatrixF32 layernorm_ref(const MatrixF32& x) {
  MatrixF32 out(x.rows(), x.cols());
  for (int r = 0; r < x.rows(); ++r) {
    double sum = 0;
    for (const auto v : x.row(r)) sum += v;
    const double mean = sum / x.cols();
    double var = 0;
    for (const auto v : x.row(r)) var += (v - mean) * (v - mean);
    var /= x.cols();
    const double inv = 1.0 / std::sqrt(var + 1e-9);
    for (int c = 0; c < x.cols(); ++c)
      out.at(r, c) = static_cast<float>((x.at(r, c) - mean) * inv);
  }
  return out;
}

}  // namespace vitbit::quant
