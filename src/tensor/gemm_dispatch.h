// Engine dispatch for host matrix products.
//
// Every functional matrix product in the library routes through gemm_int /
// gemm_f32, which select between the reference triple loops (gemm_ref.h,
// the oracle) and the SIMD engine (gemm_simd.h, runtime-dispatched
// AVX2/SSE4.1 microkernels over the blocked macro-loop of gemm_blocked.h,
// whose scalar tiles it runs at tier none). Both produce bit-identical
// results; the switch exists for A/B timing and for bisecting, not for
// accuracy trade-offs. The reference sums int products in int64 and f32
// products in double; at avx2 the simd engine sums int16 pairs in int32
// wherever a per-call bound, max|a| * max|b| * K <= INT32_MAX over integer
// operands in [-32767, 32767], proves that exact (gemm_simd.h), and uses
// the int64 / double tiles everywhere else.
//
// Selection, in precedence order:
//   1. set_default_gemm_engine() — the --gemm=ref|simd CLI override.
//   2. The VITBIT_GEMM environment variable ("ref" or "simd"), read once
//      on first use; any other value throws CheckError (fail loud, like a
//      mistyped flag).
//   3. Default: simd, at every SIMD tier. VITBIT_SIMD_LEVEL /
//      --simd-level (tensor/simd_level.h) pick the tier it dispatches to.
#pragma once

#include <string>

#include "common/thread_pool.h"
#include "tensor/matrix.h"

namespace vitbit {

enum class GemmEngine { kRef, kSimd };

const char* gemm_engine_name(GemmEngine engine);
// A name from gemm_engine_names(); anything else throws CheckError listing
// every valid engine. Shared by vitbit_cli --gemm and the VITBIT_GEMM
// environment parse, so a typo fails the same way everywhere.
GemmEngine gemm_engine_from_string(const std::string& name);
// "ref|simd" — for error messages and --help text.
const char* gemm_engine_names();

// The process-wide engine used by gemm_int / gemm_f32.
GemmEngine default_gemm_engine();
void set_default_gemm_engine(GemmEngine engine);

// C (MxN, int32) = A (MxK) * B (KxN) under the default engine. `pool`
// parallelizes the simd engine over disjoint row panels (byte-identical
// output at any thread count); the reference engine is always serial.
MatrixI32 gemm_int(const MatrixI32& a, const MatrixI32& b,
                   ThreadPool* pool = nullptr);

// C (MxN, float) = A (MxK) * B (KxN), double accumulation, same contract.
MatrixF32 gemm_f32(const MatrixF32& a, const MatrixF32& b,
                   ThreadPool* pool = nullptr);

}  // namespace vitbit
