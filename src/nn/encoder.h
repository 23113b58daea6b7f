// Transformer encoder block, integer-only:
//   h = x + Dropout(Attention(LayerNorm(x)))
//   y = h + Dropout(MLP(LayerNorm(h)))    with MLP = fc2(ShiftGELU(fc1(.)))
#pragma once

#include <string>

#include "nn/attention.h"
#include "nn/kernel_log.h"
#include "nn/linear.h"
#include "nn/vit_config.h"
#include "quant/qtensor.h"

namespace vitbit::nn {

struct EncoderLayer {
  AttentionLayer attn;
  QuantLinear fc1;  // hidden -> mlp
  QuantLinear fc2;  // mlp -> hidden

  quant::QTensor forward(const quant::QTensor& x, const GemmFn& gemm,
                         KernelLog* log, const std::string& name,
                         int act_bits = 8) const;
};

EncoderLayer random_encoder_layer(Rng& rng, const VitConfig& cfg);

// Integer residual add saturating to `act_bits` (same scale on both sides).
quant::QTensor residual_add(const quant::QTensor& a, const quant::QTensor& b,
                            KernelLog* log, const std::string& name,
                            int act_bits = 8);

// Integer LayerNorm producing `act_bits`-wide activations at the input's
// scale.
quant::QTensor layer_norm(const quant::QTensor& x, KernelLog* log,
                          const std::string& name, int act_bits = 8);

// Inference-mode dropout: identity on values, but a real kernel launch in
// the paper's workload, so it is recorded in the log.
quant::QTensor dropout(quant::QTensor x, KernelLog* log,
                       const std::string& name);

}  // namespace vitbit::nn
