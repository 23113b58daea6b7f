// Scalar reference bodies of the integer epilogue kernels: requantize,
// ShiftGELU, I-LayerNorm, shiftmax, the residual add and the model's
// LayerNorm. They are the straightforward int64, one-element-at-a-time
// forms of each kernel's contract, kept here as bit-identity oracles for
// the library's fused and table-driven versions. Shiftmax's division is
// plain `/` and `%`, so the oracle does not depend on quant::IntDivisor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/int_math.h"
#include "quant/fixed_point.h"
#include "quant/int_exp.h"
#include "tensor/matrix.h"

namespace vitbit::oracle {

inline MatrixI32 requantize_oracle(const MatrixI32& acc, int in_fb, int out_fb,
                                   int bits) {
  VITBIT_CHECK(bits >= 2 && bits <= 31);
  MatrixI32 out(acc.rows(), acc.cols());
  const auto in = acc.flat();
  const auto dst = out.flat();
  const int shift = in_fb - out_fb;
  if (shift >= 0) {
    VITBIT_CHECK(shift < 63);
    for (std::size_t i = 0; i < in.size(); ++i)
      dst[i] = static_cast<std::int32_t>(clamp_signed(
          quant::rounding_shift_unchecked(in[i], shift), bits));
  } else {
    const int left = std::min(-shift, 32);
    for (std::size_t i = 0; i < in.size(); ++i)
      dst[i] = static_cast<std::int32_t>(
          clamp_signed(static_cast<std::int64_t>(in[i]) << left, bits));
  }
  return out;
}

inline MatrixI32 shift_gelu_oracle(const MatrixI32& x, int fb) {
  VITBIT_CHECK(fb >= 1 && fb <= 20);
  MatrixI32 out(x.rows(), x.cols());
  const std::int32_t one = std::int32_t{1} << fb;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int32_t q = x.flat()[i];
    const std::int64_t y =
        std::int64_t{q} + (q >> 1) + (q >> 3) + (q >> 4) + (q >> 7);
    const std::int64_t n = y < 0 ? y : -y;
    const std::int32_t e = quant::int_exp_neg(n, fb);
    const std::int64_t denom = static_cast<std::int64_t>(one) + e;
    const std::int64_t num =
        (static_cast<std::int64_t>(y < 0 ? e : one) << fb) + denom / 2;
    const auto sigma = static_cast<std::int32_t>(num / denom);
    out.flat()[i] =
        quant::rounding_shift(static_cast<std::int64_t>(q) * sigma, fb);
  }
  return out;
}

inline void normalize_row_oracle(std::span<const std::int32_t> row,
                                 std::span<std::int32_t> out, int out_fb) {
  const auto n = static_cast<std::int64_t>(row.size());
  std::int64_t sum = 0;
  for (const auto v : row) sum += v;
  const std::int64_t mean =
      sum >= 0 ? (sum + n / 2) / n : -((-sum + n / 2) / n);
  std::int64_t var_acc = 0;
  for (const auto v : row) {
    const std::int64_t d = v - mean;
    var_acc += d * d;
  }
  const std::int64_t var = var_acc / n + 1;
  const std::int64_t stddev = quant::isqrt(var);
  for (std::size_t i = 0; i < row.size(); ++i) {
    const std::int64_t d = (static_cast<std::int64_t>(row[i]) - mean)
                           << out_fb;
    const std::int64_t q =
        d >= 0 ? (d + stddev / 2) / stddev : -((-d + stddev / 2) / stddev);
    out[i] = static_cast<std::int32_t>(q);
  }
}

inline MatrixI32 ilayernorm_oracle(const MatrixI32& x, int out_fb) {
  VITBIT_CHECK(out_fb >= 0 && out_fb <= 20);
  VITBIT_CHECK(x.cols() >= 1);
  MatrixI32 out(x.rows(), x.cols());
  for (int r = 0; r < x.rows(); ++r)
    normalize_row_oracle(x.row(r), out.row(r), out_fb);
  return out;
}

inline MatrixI32 ilayernorm_affine_oracle(const MatrixI32& x, int out_fb,
                                          std::span<const std::int32_t> gamma,
                                          std::span<const std::int32_t> beta,
                                          int gb_fb) {
  VITBIT_CHECK(static_cast<int>(gamma.size()) == x.cols());
  VITBIT_CHECK(static_cast<int>(beta.size()) == x.cols());
  VITBIT_CHECK(gb_fb >= 0 && gb_fb <= 20);
  MatrixI32 out = ilayernorm_oracle(x, out_fb);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      const std::int64_t scaled =
          static_cast<std::int64_t>(out.at(r, c)) *
          gamma[static_cast<std::size_t>(c)];
      const std::int64_t beta_q =
          static_cast<std::int64_t>(beta[static_cast<std::size_t>(c)])
          << (out_fb > gb_fb ? out_fb - gb_fb : 0);
      std::int64_t v = quant::rounding_shift(scaled, gb_fb);
      v += gb_fb > out_fb ? (beta_q >> (gb_fb - out_fb)) : beta_q;
      out.at(r, c) = static_cast<std::int32_t>(v);
    }
  }
  return out;
}

inline MatrixI32 shiftmax_oracle(const MatrixI32& logits, int in_fb,
                                 int out_bits) {
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
      const std::int64_t d =
          std::int64_t{row[static_cast<std::size_t>(c)]} - mx;
      e[static_cast<std::size_t>(c)] = quant::int_exp_neg(d, in_fb);
      sum += e[static_cast<std::size_t>(c)];
    }
    // Round half up, the contract of IntDivisor::div_rounded.
    const auto out_row = out.row(r);
    for (std::size_t c = 0; c < e.size(); ++c) {
      const std::int64_t n = static_cast<std::int64_t>(e[c]) << out_bits;
      out_row[c] = static_cast<std::int32_t>(n / sum +
                                             (2 * (n % sum) >= sum ? 1 : 0));
    }
  }
  return out;
}

// The encoder's residual add and LayerNorm (nn/encoder.cpp): the int64 sum
// and the normalized row, each saturated to `act_bits`.
inline MatrixI32 residual_add_oracle(const MatrixI32& a, const MatrixI32& b,
                                     int act_bits) {
  VITBIT_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  MatrixI32 out(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i)
    out.flat()[i] = static_cast<std::int32_t>(clamp_signed(
        static_cast<std::int64_t>(a.flat()[i]) + b.flat()[i], act_bits));
  return out;
}

inline MatrixI32 layer_norm_oracle(const MatrixI32& x, int frac_bits,
                                   int act_bits) {
  MatrixI32 out = ilayernorm_oracle(x, frac_bits);
  for (auto& v : out.flat())
    v = static_cast<std::int32_t>(clamp_signed(v, act_bits));
  return out;
}

}  // namespace vitbit::oracle
