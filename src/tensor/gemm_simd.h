// SIMD host GEMM engine. Output is bit-identical to gemm_ref_* on every
// shape and at every thread count, by one of two paths:
//
// Wide path (every tier): the blocked macro-loop of tensor/gemm_blocked.h
// with runtime-dispatched AVX2 / SSE4.1 full-tile microkernels. The int
// kernels sum the same int64 products per element (integer addition is
// associative), and the f32 kernels perform the same double
// multiply-and-add per element in the same k order (see
// gemm_simd_avx2.cpp for the full argument).
//
// Narrow path (avx2 only; gemm_simd_kernels.h): int16 operands multiplied
// in pairs by vpmaddwd and summed in int32. A call takes it when every
// operand is an integer in [-32767, 32767] and
// max|a| * max|b| * K <= INT32_MAX, both read from one scan of each
// operand in the pass that narrows it. Under that bound every partial sum
// in any order, each pair sum included, is at most INT32_MAX in magnitude,
// so the int32 sums equal the int64 sums, and the int32 overflow check
// cannot fire (calls it could fire on take the wide path, so the throws
// are the reference's). For f32, integer operands make the reference's
// double recurrence exact too: it ends at the exact sum S, and both paths
// round S to float once, a zero sum to +0.0. NaN, +-inf, non-integers,
// |v| >= 32768 and sums past the bound take the wide path.
//
// No fast-math tier exists: the simd engine is a faster spelling of the
// reference arithmetic.
//
// Fallback chain: the kernels are chosen from active_simd_level()
// (tensor/simd_level.h) at each call — avx2 (narrow path, else the AVX2
// tiles), then sse, then the scalar blocked tiles when the level is none
// (or the matching kernel TU was not compiled). Forcing
// VITBIT_SIMD_LEVEL=none therefore makes gemm_simd_* equal gemm_blocked_*
// exactly.
#pragma once

#include "common/thread_pool.h"
#include "tensor/matrix.h"
#include "tensor/simd_level.h"

namespace vitbit {

// C (MxN, int32) = A (MxK) * B (KxN), bit-identical to gemm_ref_int
// (int32 sums where the bound above proves them exact, int64 otherwise).
// Same pool/edge/overflow contract as gemm_blocked_int.
MatrixI32 gemm_simd_int(const MatrixI32& a, const MatrixI32& b,
                        ThreadPool* pool = nullptr);

// C (MxN, float) = A (MxK) * B (KxN), bit-identical to gemm_ref_f32
// (exact int32 sums for integer operands under the bound, double
// accumulation otherwise).
MatrixF32 gemm_simd_f32(const MatrixF32& a, const MatrixF32& b,
                        ThreadPool* pool = nullptr);

}  // namespace vitbit
