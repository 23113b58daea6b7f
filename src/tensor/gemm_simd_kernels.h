// Internal: GEMM microkernel entry points, one set per SIMD level. Each is
// defined in its own translation unit compiled with the matching -m flag
// (gemm_simd_avx2.cpp / gemm_simd_sse.cpp) and is only referenced after
// runtime feature detection (tensor/simd_level.h), so the binary stays
// runnable on CPUs without the feature. The TUs take raw pointers only, so
// no inline library code is instantiated under the wider ISA flags.
//
// Wide tiles (every tier): accumulate one kGemmMr x kGemmNr tile into
// `acc` using the exact reference recurrence — int64 lane products summed
// per element, or double mul+add per element in k order — so output is
// bit-identical to the scalar tiles in tensor/gemm_blocked.h.
//
// Narrow path (avx2 only): int16 operands multiplied in pairs by
// vpmaddwd and summed in int32 lanes. gemm_simd_int / gemm_simd_f32
// (gemm_simd.cpp) take it only when every operand is an integer in
// [-32767, 32767] and max|a| * max|b| * K <= INT32_MAX. Under that bound
// every partial sum, in any order, is at most INT32_MAX in magnitude (a
// vpmaddwd pair sum included), so the int32 sums equal the int64 sums
// exactly. -32768 is excluded: it is the one int16 whose pair sum can
// reach 2^31.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm_blocked.h"

namespace vitbit::detail {

#if defined(VITBIT_SIMD_HAVE_AVX2)
void gemm_tile_int_avx2(const std::int32_t* a, std::size_t lda,
                        const std::int32_t* bp, int kdim,
                        std::int64_t acc[kGemmMr][kGemmNr]);
void gemm_tile_f32_avx2(const float* a, std::size_t lda, const float* bp,
                        int kdim, double acc[kGemmMr][kGemmNr]);

// Narrow tile: kNarrowMr rows of int16 A against one kNarrowNr-column
// panel of k-pair words.
inline constexpr int kNarrowMr = 4;
inline constexpr int kNarrowNr = 16;

// Narrows the m x k row-major matrix `a` into int16 rows of stride `lda`
// (lda >= k). Entries of `out` past column k are left as they are.
// Returns max|a|, or -1 as soon as a row holds a value that is not an
// integer in [-32767, 32767] (NaN and +-inf included); `out` is then
// partly written.
std::int32_t narrow_rows_avx2(const std::int32_t* a, int m, int k,
                              std::int16_t* out, std::size_t lda);
std::int32_t narrow_rows_avx2(const float* a, int m, int k,
                              std::int16_t* out, std::size_t lda);

// Packs the k x n row-major matrix `b` into ceil(n / kNarrowNr) panels of
// ceil(k / 2) * kNarrowNr words each. Word (q, j) of panel p holds
// b[2q][p * kNarrowNr + j] in its low 16 bits and b[2q + 1][...] in its
// high 16 bits; an odd k's last pair has a zero high half. `out` must
// arrive zeroed: the padding columns of a ragged last panel are never
// written. Returns max|b|, or -1 on the first pair of rows holding a value
// the narrow path cannot take (same rule as narrow_rows_avx2).
std::int32_t pack_b_pairs_avx2(const std::int32_t* b, int k, int n,
                               std::uint32_t* out);
std::int32_t pack_b_pairs_avx2(const float* b, int k, int n,
                               std::uint32_t* out);

// acc (overwritten) = the kNarrowMr x kNarrowNr product of int16 rows
// a[i * lda + 0 .. 2 * kpairs) and one panel `bp` of kpairs k-pair words
// per column. lda must be even.
void gemm_tile_narrow_avx2(const std::int16_t* a, std::size_t lda,
                           const std::uint32_t* bp, std::size_t kpairs,
                           std::int32_t acc[kNarrowMr][kNarrowNr]);
#endif

#if defined(VITBIT_SIMD_HAVE_SSE4)
void gemm_tile_int_sse(const std::int32_t* a, std::size_t lda,
                       const std::int32_t* bp, int kdim,
                       std::int64_t acc[kGemmMr][kGemmNr]);
void gemm_tile_f32_sse(const float* a, std::size_t lda, const float* bp,
                       int kdim, double acc[kGemmMr][kGemmNr]);
#endif

}  // namespace vitbit::detail
