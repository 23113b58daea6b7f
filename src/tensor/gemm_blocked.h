// Blocked host GEMM: cache-tiled, panel-packed matrix products that are
// bit-identical to the gemm_ref_* triple loops (tensor/gemm_ref.h). The
// simd engine (tensor/gemm_simd.h), the dispatcher's default, runs this
// macro-loop at every SIMD tier and these scalar tiles at tier none.
//
// Decomposition (the BLIS/GotoBLAS scheme, reduced to what bit-identity
// permits): B is packed once into contiguous column panels of width kGemmNr,
// C is produced register tile by register tile (kGemmMr x kGemmNr), and the
// k dimension is traversed *in full and in order* inside each tile so every
// output element accumulates its products in exactly the reference order.
// Integer tiles accumulate in int64, float tiles in double — the same
// widths as the references, which stay the oracle.
//
// The macro-loop (panel packing, row-task fan-out, edge handling, overflow
// checks) is factored into detail::gemm_int_panels / gemm_f32_panels,
// parameterized on the full-tile microkernel: gemm_blocked_* pass the
// scalar tiles below, the simd engine (tensor/gemm_simd.h) passes AVX2 or
// SSE4.1 microkernels that compute the *same* per-element recurrence, so
// every engine shares one set of checks and one traversal order. (The
// simd engine's narrow path, int32 sums under a per-call exactness bound,
// has its own loop in gemm_simd.cpp and never reaches these checks.)
//
// Parallelism: disjoint row panels of kGemmRowsPerTask rows are fanned out
// over the caller's ThreadPool (common/thread_pool.h). Tasks write disjoint
// output rows and every element is computed by the same scalar recurrence,
// so output is byte-identical at any thread count. The panel size is a
// constant (not derived from the pool), which also keeps the first
// reported overflow element independent of --threads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/matrix.h"

namespace vitbit {

// Register tile: kGemmMr rows of A against a kGemmNr-wide packed B panel.
// 4x8 int64 accumulators fit the vector register file on the host targets
// we care about (two cache lines of accumulators per tile).
inline constexpr int kGemmMr = 4;
inline constexpr int kGemmNr = 8;
// Rows per parallel task; a multiple of kGemmMr so register tiles never
// straddle a task boundary.
inline constexpr int kGemmRowsPerTask = 32;

namespace detail {

// The shape check every engine makes first, with one message.
template <typename TA, typename TB>
void check_gemm_shape(const Matrix<TA>& a, const Matrix<TB>& b) {
  VITBIT_CHECK_MSG(a.cols() == b.rows(), "GEMM shape mismatch: A is "
                                             << a.rows() << "x" << a.cols()
                                             << ", B is " << b.rows() << "x"
                                             << b.cols());
}

// Full kGemmMr x kGemmNr tile with compile-time bounds: the compiler
// unrolls both inner loops and vectorizes the accumulator updates.
template <typename TA>
inline void gemm_tile_int_full(const TA* a, std::size_t lda,
                               const std::int32_t* bp, int kdim,
                               std::int64_t acc[kGemmMr][kGemmNr]) {
  for (int k = 0; k < kdim; ++k) {
    const std::int32_t* brow = bp + static_cast<std::size_t>(k) * kGemmNr;
    for (int i = 0; i < kGemmMr; ++i) {
      const auto ai = static_cast<std::int64_t>(a[i * lda + k]);
      for (int j = 0; j < kGemmNr; ++j) acc[i][j] += ai * brow[j];
    }
  }
}

// Ragged edge tile (mr < kGemmMr rows and/or w < kGemmNr columns).
template <typename TA>
inline void gemm_tile_int_edge(const TA* a, std::size_t lda,
                               const std::int32_t* bp, int kdim, int mr,
                               int w, std::int64_t acc[kGemmMr][kGemmNr]) {
  for (int k = 0; k < kdim; ++k) {
    const std::int32_t* brow = bp + static_cast<std::size_t>(k) * w;
    for (int i = 0; i < mr; ++i) {
      const auto ai = static_cast<std::int64_t>(a[i * lda + k]);
      for (int j = 0; j < w; ++j) acc[i][j] += ai * brow[j];
    }
  }
}

// f32 twins of the int tiles: double accumulators, same in-order k
// traversal per output element.
inline void gemm_tile_f32_full(const float* a, std::size_t lda,
                               const float* bp, int kdim,
                               double acc[kGemmMr][kGemmNr]) {
  for (int k = 0; k < kdim; ++k) {
    const float* brow = bp + static_cast<std::size_t>(k) * kGemmNr;
    for (int i = 0; i < kGemmMr; ++i) {
      const auto ai = static_cast<double>(a[i * lda + k]);
      for (int j = 0; j < kGemmNr; ++j)
        acc[i][j] += ai * static_cast<double>(brow[j]);
    }
  }
}

inline void gemm_tile_f32_edge(const float* a, std::size_t lda,
                               const float* bp, int kdim, int mr, int w,
                               double acc[kGemmMr][kGemmNr]) {
  for (int k = 0; k < kdim; ++k) {
    const float* brow = bp + static_cast<std::size_t>(k) * w;
    for (int i = 0; i < mr; ++i) {
      const auto ai = static_cast<double>(a[i * lda + k]);
      for (int j = 0; j < w; ++j)
        acc[i][j] += ai * static_cast<double>(brow[j]);
    }
  }
}

// Packs B (KxN) into column panels of width kGemmNr: panel p holds columns
// [p*kGemmNr, p*kGemmNr + w) contiguously as [k][j]. The ragged last panel
// keeps its true width w — no zero padding, so no padded lanes can ever
// touch an accumulator.
template <typename TB>
inline std::vector<std::int32_t> pack_b_panels_int(const Matrix<TB>& b) {
  const int kdim = b.rows(), n = b.cols();
  std::vector<std::int32_t> packed(static_cast<std::size_t>(kdim) * n);
  std::size_t off = 0;
  for (int n0 = 0; n0 < n; n0 += kGemmNr) {
    const int w = std::min(kGemmNr, n - n0);
    for (int k = 0; k < kdim; ++k)
      for (int j = 0; j < w; ++j)
        packed[off + static_cast<std::size_t>(k) * w + j] =
            static_cast<std::int32_t>(b.at(k, n0 + j));
    off += static_cast<std::size_t>(kdim) * w;
  }
  return packed;
}

std::vector<float> pack_b_panels_f32(const MatrixF32& b);

// The shared int macro-loop: shape/headroom checks, B panel packing, row
// fan-out, the full-tile/edge-tile split, and the int32 range check on
// store. `full_tile(a, lda, bp, kdim, acc)` accumulates one full
// kGemmMr x kGemmNr tile into `acc` (which arrives zeroed); edges always
// use the scalar edge tile. Any full-tile kernel computing the reference
// per-element recurrence yields output bit-identical to gemm_ref_int.
template <typename TA, typename TB, typename FullTile>
MatrixI32 gemm_int_panels(const Matrix<TA>& a, const Matrix<TB>& b,
                          ThreadPool* pool, const FullTile& full_tile) {
  check_gemm_shape(a, b);
  const int m_dim = a.rows(), k_dim = a.cols(), n_dim = b.cols();
#ifndef NDEBUG
  // Same int64 headroom bound as gemm_ref_int, so all engines throw on
  // the same inputs in debug builds.
  std::int64_t max_a = 0, max_b = 0;
  for (const auto v : a.flat())
    max_a = std::max<std::int64_t>(max_a, std::abs(std::int64_t{v}));
  for (const auto v : b.flat())
    max_b = std::max<std::int64_t>(max_b, std::abs(std::int64_t{v}));
  VITBIT_CHECK_MSG(
      max_a == 0 || max_b == 0 ||
          std::int64_t{k_dim} <= INT64_MAX / max_a / max_b,
      "int64 accumulator headroom exceeded: K=" << k_dim << " max|A|="
                                                << max_a << " max|B|="
                                                << max_b);
#endif
  MatrixI32 c(m_dim, n_dim);
  if (m_dim == 0 || n_dim == 0) return c;

  const std::vector<std::int32_t> bpack = pack_b_panels_int(b);
  const std::size_t tasks =
      (static_cast<std::size_t>(m_dim) + kGemmRowsPerTask - 1) /
      kGemmRowsPerTask;
  parallel_map(pool, tasks, [&](std::size_t t) {
    const int r0 = static_cast<int>(t) * kGemmRowsPerTask;
    const int r1 = std::min(m_dim, r0 + kGemmRowsPerTask);
    for (int m0 = r0; m0 < r1; m0 += kGemmMr) {
      const int mr = std::min(kGemmMr, r1 - m0);
      const TA* arow = a.data() + static_cast<std::size_t>(m0) * k_dim;
      std::size_t off = 0;
      for (int n0 = 0; n0 < n_dim; n0 += kGemmNr) {
        const int w = std::min(kGemmNr, n_dim - n0);
        std::int64_t acc[kGemmMr][kGemmNr] = {};
        if (mr == kGemmMr && w == kGemmNr)
          full_tile(arow, static_cast<std::size_t>(k_dim),
                    bpack.data() + off, k_dim, acc);
        else
          gemm_tile_int_edge(arow, static_cast<std::size_t>(k_dim),
                             bpack.data() + off, k_dim, mr, w, acc);
        off += static_cast<std::size_t>(k_dim) * w;
        for (int i = 0; i < mr; ++i)
          for (int j = 0; j < w; ++j) {
            const std::int64_t v = acc[i][j];
            VITBIT_CHECK_MSG(v >= INT32_MIN && v <= INT32_MAX,
                             "int32 accumulator overflow at ("
                                 << m0 + i << "," << n0 + j << ")");
            c.at(m0 + i, n0 + j) = static_cast<std::int32_t>(v);
          }
      }
    }
    return 0;
  });
  return c;
}

// f32 twin of gemm_int_panels: double accumulation, rounded to float
// exactly once on store. Any full-tile kernel that multiplies and adds in
// double per element, in k order, is bit-identical to gemm_ref_f32.
template <typename FullTile>
MatrixF32 gemm_f32_panels(const MatrixF32& a, const MatrixF32& b,
                          ThreadPool* pool, const FullTile& full_tile) {
  check_gemm_shape(a, b);
  const int m_dim = a.rows(), k_dim = a.cols(), n_dim = b.cols();
  MatrixF32 c(m_dim, n_dim);
  if (m_dim == 0 || n_dim == 0) return c;

  const std::vector<float> bpack = pack_b_panels_f32(b);
  const std::size_t tasks =
      (static_cast<std::size_t>(m_dim) + kGemmRowsPerTask - 1) /
      kGemmRowsPerTask;
  parallel_map(pool, tasks, [&](std::size_t t) {
    const int r0 = static_cast<int>(t) * kGemmRowsPerTask;
    const int r1 = std::min(m_dim, r0 + kGemmRowsPerTask);
    for (int m0 = r0; m0 < r1; m0 += kGemmMr) {
      const int mr = std::min(kGemmMr, r1 - m0);
      const float* arow = a.data() + static_cast<std::size_t>(m0) * k_dim;
      std::size_t off = 0;
      for (int n0 = 0; n0 < n_dim; n0 += kGemmNr) {
        const int w = std::min(kGemmNr, n_dim - n0);
        double acc[kGemmMr][kGemmNr] = {};
        if (mr == kGemmMr && w == kGemmNr)
          full_tile(arow, static_cast<std::size_t>(k_dim),
                    bpack.data() + off, k_dim, acc);
        else
          gemm_tile_f32_edge(arow, static_cast<std::size_t>(k_dim),
                             bpack.data() + off, k_dim, mr, w, acc);
        off += static_cast<std::size_t>(k_dim) * w;
        for (int i = 0; i < mr; ++i)
          for (int j = 0; j < w; ++j)
            c.at(m0 + i, n0 + j) = static_cast<float>(acc[i][j]);
      }
    }
    return 0;
  });
  return c;
}

}  // namespace detail

// C (MxN, int32) = A (MxK) * B (KxN), int64 accumulation, bit-identical to
// gemm_ref_int (same shape check, same int32 final-range check; see
// gemm_ref.h for the int64 headroom contract). `pool` fans disjoint row
// panels out; nullptr runs serially.
template <typename TA, typename TB>
MatrixI32 gemm_blocked_int(const Matrix<TA>& a, const Matrix<TB>& b,
                           ThreadPool* pool = nullptr) {
  return detail::gemm_int_panels(a, b, pool, detail::gemm_tile_int_full<TA>);
}

// C (MxN, float) = A (MxK) * B (KxN), double accumulation, bit-identical to
// gemm_ref_f32 (each element sums its products in k order, in double, and
// rounds to float exactly once).
MatrixF32 gemm_blocked_f32(const MatrixF32& a, const MatrixF32& b,
                           ThreadPool* pool = nullptr);

}  // namespace vitbit
