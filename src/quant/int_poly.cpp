#include "quant/int_poly.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "quant/fixed_point.h"
#include "quant/int_div.h"

namespace vitbit::quant {

namespace {
// I-BERT erf polynomial constants.
constexpr double kErfA = -0.2888;
constexpr double kErfB = -1.769;
constexpr double kLn2 = 0.6931471805599453;
// exp(r) ~= 0.3585*(r + 1.353)^2 + 0.344 on r in (-ln2, 0].
constexpr double kExpA = 0.3585;
constexpr double kExpB = 1.353;
constexpr double kExpC = 0.344;
}  // namespace

std::int32_t int_erf_poly(std::int32_t q, int fb) {
  VITBIT_CHECK(fb >= 2 && fb <= 14);
  const std::int32_t one = std::int32_t{1} << fb;
  const int sign = q < 0 ? -1 : 1;
  // clip(|x|, 0, -b)
  const auto b_q = static_cast<std::int32_t>(std::llround(-kErfB * one));
  std::int32_t ax = std::min(q < 0 ? -q : q, b_q);
  // a * (clip + b)^2 + 1, all at fb fraction bits.
  const std::int64_t t = ax - b_q;  // <= 0
  const std::int64_t t2 = rounding_shift(t * t, fb);
  const auto a_d = dyadic_from_double(-kErfA);  // positive multiplier
  const std::int32_t poly =
      one - dyadic_mul(static_cast<std::int32_t>(t2), a_d);
  return sign * poly;
}

MatrixI32 poly_gelu(const MatrixI32& x, int fb) {
  VITBIT_CHECK(fb >= 2 && fb <= 14);
  MatrixI32 out(x.rows(), x.cols());
  const std::int32_t one = std::int32_t{1} << fb;
  const auto inv_sqrt2 = dyadic_from_double(1.0 / std::sqrt(2.0));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int32_t q = x.flat()[i];
    const std::int32_t erf = int_erf_poly(dyadic_mul(q, inv_sqrt2), fb);
    // 0.5 * q * (1 + erf)
    const std::int64_t prod = static_cast<std::int64_t>(q) * (one + erf);
    out.flat()[i] = rounding_shift(prod, fb + 1);
  }
  return out;
}

std::int32_t int_exp_poly(std::int32_t p, int fb) {
  VITBIT_CHECK(p <= 0);
  VITBIT_CHECK(fb >= 2 && fb <= 14);
  const std::int32_t one = std::int32_t{1} << fb;
  const auto ln2_q = static_cast<std::int32_t>(std::llround(kLn2 * one));
  // z = floor(-p / ln2); r = p + z*ln2 in (-ln2, 0].
  const std::int32_t z = (-p) / ln2_q;
  if (z >= 31) return 0;
  const std::int32_t r = p + z * ln2_q;
  VITBIT_DCHECK(r <= 0 && r > -ln2_q - 1);
  // exp(r) ~= a*(r + b)^2 + c.
  const auto b_q = static_cast<std::int32_t>(std::llround(kExpB * one));
  const std::int64_t t = r + b_q;
  const std::int64_t t2 = rounding_shift(t * t, fb);
  const auto a_d = dyadic_from_double(kExpA);
  const auto c_q = static_cast<std::int32_t>(std::llround(kExpC * one));
  const std::int32_t e = dyadic_mul(static_cast<std::int32_t>(t2), a_d) + c_q;
  return e >> z;
}

MatrixI32 poly_softmax(const MatrixI32& logits, int in_fb, int out_bits) {
  VITBIT_CHECK(in_fb >= 2 && in_fb <= 14);
  VITBIT_CHECK(out_bits >= 1 && out_bits <= 24);
  VITBIT_CHECK(logits.cols() >= 1);
  MatrixI32 out(logits.rows(), logits.cols());
  std::vector<std::int32_t> e(static_cast<std::size_t>(logits.cols()));
  for (int r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    const std::int32_t mx = *std::max_element(row.begin(), row.end());
    std::int64_t sum = 0;
    for (int c = 0; c < logits.cols(); ++c) {
      e[static_cast<std::size_t>(c)] =
          int_exp_poly(row[static_cast<std::size_t>(c)] - mx, in_fb);
      sum += e[static_cast<std::size_t>(c)];
    }
    VITBIT_DCHECK(sum > 0);
    const IntDivisor div(sum);
    const auto out_row = out.row(r);
    for (std::size_t c = 0; c < e.size(); ++c)
      out_row[c] = static_cast<std::int32_t>(
          div.div_rounded(static_cast<std::int64_t>(e[c]) << out_bits));
  }
  return out;
}

}  // namespace vitbit::quant
