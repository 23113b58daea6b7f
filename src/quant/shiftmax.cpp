#include "quant/shiftmax.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "quant/int_div.h"
#include "quant/int_exp.h"

namespace vitbit::quant {

MatrixI32 shiftmax(const MatrixI32& logits, int in_fb, int out_bits,
                   std::int32_t out_max) {
  VITBIT_CHECK(in_fb >= 1 && in_fb <= 24);
  VITBIT_CHECK(out_bits >= 1 && out_bits <= 24);
  VITBIT_CHECK(logits.cols() >= 1);
  MatrixI32 out(logits.rows(), logits.cols());
  std::vector<std::int32_t> e(static_cast<std::size_t>(logits.cols()));
  for (int r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    const std::int32_t mx = *std::max_element(row.begin(), row.end());
    std::int64_t sum = 0;
    for (int c = 0; c < logits.cols(); ++c) {
      // Delta <= 0, down to -(2^32 - 1) in int64; exp via shifts.
      const std::int64_t d =
          std::int64_t{row[static_cast<std::size_t>(c)]} - mx;
      e[static_cast<std::size_t>(c)] = int_exp_neg(d, in_fb);
      sum += e[static_cast<std::size_t>(c)];
    }
    VITBIT_DCHECK(sum > 0);  // the max element contributes 2^in_fb
    // Integer-only normalization: one Newton reciprocal of the row sum
    // (GPUs have no integer divider; see quant/int_div.h), then an exact
    // rounded quotient per element, saturated at out_max.
    const IntDivisor div(sum);
    const auto out_row = out.row(r);
    for (std::size_t c = 0; c < e.size(); ++c)
      out_row[c] = static_cast<std::int32_t>(std::min<std::int64_t>(
          div.div_rounded(static_cast<std::int64_t>(e[c]) << out_bits),
          out_max));
  }
  return out;
}

MatrixF32 softmax_ref(const MatrixF32& logits) {
  MatrixF32 out(logits.rows(), logits.cols());
  for (int r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    const float mx = *std::max_element(row.begin(), row.end());
    double sum = 0.0;
    for (int c = 0; c < logits.cols(); ++c)
      sum +=
          std::exp(static_cast<double>(row[static_cast<std::size_t>(c)]) - mx);
    for (int c = 0; c < logits.cols(); ++c)
      out.at(r, c) = static_cast<float>(
          std::exp(static_cast<double>(row[static_cast<std::size_t>(c)]) - mx) /
          sum);
  }
  return out;
}

}  // namespace vitbit::quant
