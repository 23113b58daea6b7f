// Quantized tensor: integer values plus a power-of-two scale.
//
// The integer-only inference path (I-ViT computation rules, used by the
// paper's ViT-Base workload) performs *all* arithmetic on the integer
// values; scales are compile-time metadata that the integer kernels consume
// only as shift amounts, never as floats at runtime.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "tensor/matrix.h"

namespace vitbit::quant {

struct QTensor {
  MatrixI32 q;        // quantized integer values
  int frac_bits = 0;  // real value = q * 2^-frac_bits

  double scale() const { return std::ldexp(1.0, -frac_bits); }

  int rows() const { return q.rows(); }
  int cols() const { return q.cols(); }
};

// Quantizes real values to `bits`-bit signed integers at scale 2^-frac_bits,
// saturating at the representable range.
QTensor quantize(const MatrixF32& x, int frac_bits, int bits = 8);

// Reconstructs real values.
MatrixF32 dequantize(const QTensor& t);

// Chooses frac_bits so that max|x| maps near the top of the `bits`-bit
// signed range (power-of-two calibration).
int choose_frac_bits(const MatrixF32& x, int bits = 8);

// Saturating requantization of int32 values at scale 2^-in_fb to `bits`-bit
// integers at scale 2^-out_fb (a right shift with rounding half away from
// zero, or a left shift, plus clamp). bits in [2, 31]; right shifts must be
// below 63.
MatrixI32 requantize(const MatrixI32& acc, int in_fb, int out_fb, int bits);

// The epilogue of every integer linear layer, in place and in one pass:
// acc[r][c] + bias[c], summed exactly as in int64, then requantized as
// above. An empty bias adds nothing; otherwise it has one entry per
// column. The pass runs on int32 lanes (each sum is split into high and
// low parts at the shift), so gcc vectorizes it at the baseline ISA at
// -O3.
void requantize_in_place(MatrixI32& acc, std::span<const std::int32_t> bias,
                         int in_fb, int out_fb, int bits);

}  // namespace vitbit::quant
