// Shiftmax (I-ViT): integer-only softmax built from shift-based exp and an
// integer divider — the attention-probability kernel of the quantized
// ViT-Base workload.
#pragma once

#include <cstdint>

#include "tensor/matrix.h"

namespace vitbit::quant {

// Row-wise integer softmax. `logits` carry `in_fb` fraction bits; the output
// holds probabilities with `out_bits` fraction bits (values in
// [0, 2^out_bits], each row summing to ~2^out_bits), each saturated at
// `out_max`. Integer ops only: one IntDivisor reciprocal of the row sum per
// row.
MatrixI32 shiftmax(const MatrixI32& logits, int in_fb, int out_bits,
                   std::int32_t out_max = INT32_MAX);

// Float reference for error measurement.
MatrixF32 softmax_ref(const MatrixF32& logits);

}  // namespace vitbit::quant
