// I-LayerNorm (I-ViT): integer-only layer normalization using an integer
// Newton square root — the normalization kernel of the quantized ViT-Base.
#pragma once

#include <cstdint>

#include "tensor/matrix.h"

namespace vitbit::quant {

// Row-wise integer layer norm: out = (q - mean) * 2^out_fb / sqrt(var + 1),
// rounded half away from zero. The input scale cancels, so `x` may carry
// any fraction bits; the output carries `out_fb`, saturated to the
// `bits`-bit signed range (32: no saturation). Integer ops only: int64
// intermediates, a Newton isqrt per row and one IntDivisor reciprocal of
// the standard deviation per row.
MatrixI32 ilayernorm(const MatrixI32& x, int out_fb, int bits = 32);

// Variant with quantized affine parameters: gamma/beta carry `gb_fb`
// fraction bits and have one entry per column. Output keeps `out_fb`.
MatrixI32 ilayernorm_affine(const MatrixI32& x, int out_fb,
                            std::span<const std::int32_t> gamma,
                            std::span<const std::int32_t> beta, int gb_fb);

// Float reference (epsilon matching the integer variant's +1 var guard is
// negligible at tensor scale; reference uses eps=0 over variance + tiny).
MatrixF32 layernorm_ref(const MatrixF32& x);

}  // namespace vitbit::quant
