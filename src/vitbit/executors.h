// Functional GEMM executors for each Table-3 strategy: every strategy is a
// different execution of the *same* integer product, so all executors must
// return bit-identical results. These plug into nn::GemmFn so a whole ViT
// inference can run under any strategy.
//
// Each call makes one pass over each operand to check the conditions of
// the units its strategy uses, then computes the product:
//  * TC, IC: no condition; gemm_int.
//  * FC: the FP units' exactness bound max|a| * max|b| * K < 2^24
//    (fused_gemm.h) over all of A and B; gemm_int.
//  * IC+FC, Tacker, TC+IC+FC: B's columns split per Algorithm 1
//    (split_widths) into INT [0, n1), FP [n1, n1+n2) and TC [n1+n2, N).
//    Every B value fits the one-lane layout paper_policy_layout(max(
//    bitwidth, 9)), unsigned when both operands are non-negative; with
//    n1 > 0 every A value fits its scalar range; with FP columns the 2^24
//    bound holds over all of A and B's FP columns only. Then gemm_int.
//  * VitBit: the same checks on the packed layout
//    paper_policy_layout(bitwidth); gemm_packed on the INT columns, packed
//    straight from B, and one gemm_int on the FP and TC columns.
// Under those conditions a one-lane zero-masked INT register, an fp32 FFMA
// chain and a tensor-core IMMA each compute the exact integer MAC, so the
// host runs all their columns as one gemm_int: the same output, and the
// same int32-overflow CheckError, as computing each column range on its
// own. Algorithm 1/2's data flow (preprocess.h, fused_gemm.h) is not
// rebuilt per GEMM.
#pragma once

#include "nn/executor.h"
#include "vitbit/strategy.h"

namespace vitbit::core {

struct ExecutorConfig {
  int m_ratio = 4;   // Tensor:CUDA split (Section 3.2 initial study)
  int bitwidth = 8;  // value bitwidth; the packing factor follows the
                     // paper's Fig. 3 policy (8 bits -> 2, 4 bits -> 4, ...)
};

// Functional executor for `strategy`. Throws CheckError at call time if an
// input matrix breaks a condition listed above.
nn::GemmFn make_gemm_executor(Strategy strategy,
                              const ExecutorConfig& config = {});

}  // namespace vitbit::core
