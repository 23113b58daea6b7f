#include "nn/linear.h"

#include <cmath>
#include <utility>

namespace vitbit::nn {

quant::QTensor QuantLinear::forward(const quant::QTensor& x, int out_fb,
                                    const GemmFn& gemm, KernelLog* log,
                                    const std::string& name,
                                    int out_bits) const {
  VITBIT_CHECK_MSG(x.cols() == in_dim(), "linear '" << name << "': input has "
                                                    << x.cols()
                                                    << " features, expected "
                                                    << in_dim());
  MatrixI32 acc = gemm(x.q, weight);
  if (!bias.empty())
    VITBIT_CHECK(static_cast<int>(bias.size()) == out_dim());
  if (log) {
    log->add({KernelKind::kGemm, name, x.rows(), in_dim(), out_dim(),
              /*batch=*/1, /*elems=*/0});
  }
  // Bias add (exact, as in int64), rounding shift and clamp in one pass
  // over the accumulators.
  quant::requantize_in_place(acc, bias, x.frac_bits + w_frac_bits, out_fb,
                             out_bits);
  quant::QTensor out;
  out.frac_bits = out_fb;
  out.q = std::move(acc);
  return out;
}

MatrixF32 QuantLinear::weight_f32() const {
  MatrixF32 w(weight.rows(), weight.cols());
  const double s = std::ldexp(1.0, -w_frac_bits);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.flat()[i] = static_cast<float>(weight.flat()[i] * s);
  return w;
}

std::vector<float> QuantLinear::bias_f32(int x_frac_bits) const {
  std::vector<float> out(bias.size());
  const double s = std::ldexp(1.0, -(x_frac_bits + w_frac_bits));
  for (std::size_t i = 0; i < bias.size(); ++i)
    out[i] = static_cast<float>(bias[i] * s);
  return out;
}

MatrixF32 head_logits(const MatrixI32& acc, const QuantLinear& head,
                      int x_frac_bits) {
  VITBIT_CHECK(acc.rows() == 1);
  VITBIT_CHECK(static_cast<int>(head.bias.size()) == acc.cols());
  MatrixF32 logits(1, acc.cols());
  const double s = std::ldexp(1.0, -(x_frac_bits + head.w_frac_bits));
  for (int c = 0; c < acc.cols(); ++c)
    logits.at(0, c) = static_cast<float>(
        (static_cast<std::int64_t>(acc.at(0, c)) +
         head.bias[static_cast<std::size_t>(c)]) *
        s);
  return logits;
}

QuantLinear random_linear(Rng& rng, int in_dim, int out_dim, int w_frac_bits,
                          double weight_sigma) {
  QuantLinear l;
  l.w_frac_bits = w_frac_bits;
  l.weight = MatrixI32(in_dim, out_dim);
  fill_gaussian_clipped(l.weight, rng, weight_sigma, -127, 127);
  l.bias.resize(static_cast<std::size_t>(out_dim));
  for (auto& b : l.bias) b = static_cast<std::int32_t>(rng.range(-64, 64));
  return l;
}

}  // namespace vitbit::nn
