// Quantized linear layer: int8 activations x int8 weights -> int32
// accumulators -> requantized int8 output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/executor.h"
#include "nn/kernel_log.h"
#include "quant/qtensor.h"

namespace vitbit::nn {

struct QuantLinear {
  MatrixI32 weight;               // in_dim x out_dim, int8-range values
  std::vector<std::int32_t> bias; // per output, at accumulator scale
  int w_frac_bits = 6;

  int in_dim() const { return weight.rows(); }
  int out_dim() const { return weight.cols(); }

  // y = requant(x.q * weight + bias) at `out_fb` fraction bits, saturated
  // to `out_bits`-bit signed range (8 for the INT8 pipeline, 4 for the
  // low-bitwidth extension). The bias sum is exact (as in int64) and the
  // epilogue runs in place on the GEMM output. Records a kGemm call when
  // `log` is non-null.
  quant::QTensor forward(const quant::QTensor& x, int out_fb,
                         const GemmFn& gemm, KernelLog* log,
                         const std::string& name, int out_bits = 8) const;

  // Float view of the layer for the fp32 reference path.
  MatrixF32 weight_f32() const;
  std::vector<float> bias_f32(int x_frac_bits) const;
};

// A classification head's real-valued logits: each accumulator of `acc`
// (1 x out_dim, inputs at `x_frac_bits`) plus its bias, summed in int64,
// at scale 2^-(x_frac_bits + w_frac_bits).
MatrixF32 head_logits(const MatrixI32& acc, const QuantLinear& head,
                      int x_frac_bits);

// Gaussian int8 weights (sigma in integer steps) and small biases —
// the distribution shape of trained, symmetric-quantized DNN weights.
QuantLinear random_linear(Rng& rng, int in_dim, int out_dim,
                          int w_frac_bits = 6, double weight_sigma = 14.0);

}  // namespace vitbit::nn
