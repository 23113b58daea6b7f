// VitBit data preprocessing (paper Section 3.2, Algorithm 1): splits the
// input matrix B column-wise into B1 (packed, INT cores), B2 (converted to
// float, FP cores), and B3 (Tensor cores), and duplicates the weight matrix
// A into INT (A1) and float (A2) forms.
//
// Split rule (Algorithm 1 lines 3-6):
//   N3 = N * m / (1 + m)                       — Tensor-core share
//   N1 = (N - N3) * n / (1 + n), rounded to a multiple of the packing
//        factor                                — packed INT share (Eq. 1)
//   N2 = N - N3 - N1                           — FP share
//
// The strategy executors (executors.h) take their column ranges from
// split_widths but do not build the preprocessed operands per GEMM;
// input_preprocessing and weight_preprocessing feed Algorithm 2's
// vitbit_gemm (fused_gemm.h).
#pragma once

#include "swar/pack.h"
#include "tensor/matrix.h"

namespace vitbit::core {

struct SplitWidths {
  int n1 = 0;  // INT (packed) columns
  int n2 = 0;  // FP columns
  int n3 = 0;  // Tensor-core columns
};

// Column widths per Algorithm 1 for an N-column input, Tensor:CUDA ratio m
// and INT:FP ratio n (= packing factor). With fp_slice=false the whole CUDA
// share goes to the INT slice (Tacker-style execution without FP cores).
SplitWidths split_widths(int n_total, int m_ratio, int n_ratio,
                         bool fp_slice = true);

struct PreprocessedInput {
  SplitWidths widths;
  swar::LaneLayout layout;
  // B1: columns [0, n1) packed for INT cores.
  swar::PackedMatrix b1;
  // B2: columns [n1, n1+n2) converted to float (static_cast, line 33).
  MatrixF32 b2;
  // B3: columns [n1+n2, N) for Tensor cores (zero-masked INT).
  MatrixI32 b3;
};

// Algorithm 1. `b` values must fit the layout's value range.
PreprocessedInput input_preprocessing(const MatrixI32& b, int m_ratio,
                                      int n_ratio,
                                      const swar::LaneLayout& layout,
                                      bool fp_slice = true);

struct PreprocessedWeights {
  MatrixI32 a1;  // original INT weights
  MatrixF32 a2;  // duplicated float weights (one-time setup conversion)
};

PreprocessedWeights weight_preprocessing(const MatrixI32& a);

}  // namespace vitbit::core
