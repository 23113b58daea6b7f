// Pluggable integer-GEMM execution. The functional model calls through a
// GemmFn so the VitBit strategies (reference, packed, split-by-core) can be
// swapped in without touching layer code.
#pragma once

#include <functional>

#include "tensor/gemm_dispatch.h"
#include "tensor/matrix.h"

namespace vitbit::nn {

// C (MxN int32 accumulators) = A (MxK activations) * B (KxN weights).
using GemmFn = std::function<MatrixI32(const MatrixI32&, const MatrixI32&)>;

// Plain integer MACs through the engine dispatcher: the simd host engine
// by default, the gemm_ref_int triple loop under VITBIT_GEMM=ref.
// Both produce bit-identical accumulators, so this stays the semantic
// baseline the strategy executors are tested against.
inline GemmFn reference_gemm() {
  return [](const MatrixI32& a, const MatrixI32& b) { return gemm_int(a, b); };
}

}  // namespace vitbit::nn
