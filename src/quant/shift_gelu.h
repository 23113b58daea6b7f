// ShiftGELU (I-ViT): integer-only GELU via the sigmoid approximation
// GELU(x) ~ x * sigmoid(1.702 x), with 1.702 and exp realized by shifts.
#pragma once

#include <cstdint>

#include "tensor/matrix.h"

namespace vitbit::quant {

// Elementwise integer GELU. Input and output carry `fb` fraction bits.
MatrixI32 shift_gelu(const MatrixI32& x, int fb);

// shift_gelu saturated to the `bits`-bit signed range, for activations that
// are already `bits` wide (requantize at `bits` produces them): each value
// is read from a 2^bits-entry table built once per call by running
// shift_gelu over the whole domain, so shift_gelu stays the only
// definition of the arithmetic. Works in place on `x`. Throws CheckError
// unless bits is in [2, 16], fb in [1, 20] and every input in the domain.
MatrixI32 shift_gelu_clamped(MatrixI32 x, int fb, int bits);

// Float references: the sigmoid form (what ShiftGELU approximates) and the
// exact erf form (what GELU is).
MatrixF32 gelu_sigmoid_ref(const MatrixF32& x);
MatrixF32 gelu_erf_ref(const MatrixF32& x);

}  // namespace vitbit::quant
