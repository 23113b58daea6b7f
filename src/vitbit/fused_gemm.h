// Functional execution of the VitBit fused GEMM (paper Algorithm 2): the
// three column slices are computed by their unit-specific numeric paths and
// the results concatenated. This is the ground truth for the paper's
// accuracy claim — the fused result must equal the plain integer GEMM.
//
// FP-path exactness: FP32 CUDA cores compute on converted integers. Every
// product |a*b| < 2^14 and every partial sum is an integer of magnitude
// < K * 2^14; as long as that stays below 2^24, each fp32 FFMA result is
// exactly representable and the float path is *bit-exact*, not approximate.
// vitbit_gemm verifies the bound and refuses otherwise.
//
// This and preprocess.h are the paper's Algorithm 1/2 API, called by
// examples/preprocessing_tour, the tests and the benchmark's replay. The
// strategy executors (executors.h) do not call it per GEMM: they check the
// same unit conditions and run the exact slices as one gemm_int.
#pragma once

#include <cstdint>

#include "swar/packed_gemm.h"
#include "vitbit/preprocess.h"

namespace vitbit::core {

struct FusedGemmStats {
  swar::PackedGemmStats packed;      // INT-core slice accounting
  std::int64_t fp_macs = 0;          // FP-core slice
  std::int64_t tensor_macs = 0;      // Tensor-core slice
};

// C = A * B where `input` is the Algorithm-1 split of B. Throws if the
// FP slice could lose integer exactness (see header comment).
MatrixI32 vitbit_gemm(const PreprocessedWeights& weights,
                      const PreprocessedInput& input,
                      const swar::PackedGemmOptions& packed_options = {},
                      FusedGemmStats* stats = nullptr);

}  // namespace vitbit::core
