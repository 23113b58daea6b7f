#include "tensor/gemm_simd.h"

#include <optional>
#include <utility>
#include <vector>

#include "tensor/gemm_blocked.h"
#include "tensor/gemm_simd_kernels.h"

namespace vitbit {

namespace {

using TileIntFn = void (*)(const std::int32_t*, std::size_t,
                           const std::int32_t*, int,
                           std::int64_t[kGemmMr][kGemmNr]);
using TileF32Fn = void (*)(const float*, std::size_t, const float*, int,
                           double[kGemmMr][kGemmNr]);

struct Kernels {
  TileIntFn tile_int = nullptr;  // nullptr -> scalar blocked tiles
  TileF32Fn tile_f32 = nullptr;
};

Kernels kernels_for(SimdLevel level) {
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (level >= SimdLevel::kAvx2)
    return {&detail::gemm_tile_int_avx2, &detail::gemm_tile_f32_avx2};
#endif
#if defined(VITBIT_SIMD_HAVE_SSE4)
  if (level >= SimdLevel::kSse)
    return {&detail::gemm_tile_int_sse, &detail::gemm_tile_f32_sse};
#endif
  (void)level;
  return {};
}

#if defined(VITBIT_SIMD_HAVE_AVX2)
// The narrow path (gemm_simd_kernels.h): narrows A to int16 rows and packs
// B into k-pair panels, scanning both in the same pass. Returns A * B if
// every operand is an integer in [-32767, 32767] and
// max|a| * max|b| * K <= INT32_MAX, nothing otherwise.
template <typename T>
std::optional<Matrix<T>> gemm_narrow(const Matrix<T>& a, const Matrix<T>& b,
                                     ThreadPool* pool) {
  using detail::kNarrowMr;
  using detail::kNarrowNr;
  const int m_dim = a.rows(), k_dim = a.cols(), n_dim = b.cols();
  // Even row stride (a k-pair is one aligned 32-bit load) and whole
  // kNarrowMr-row tiles; the padding stays zero.
  const std::size_t lda = static_cast<std::size_t>(k_dim) + (k_dim & 1);
  const std::size_t m_pad =
      (static_cast<std::size_t>(m_dim) + kNarrowMr - 1) / kNarrowMr *
      kNarrowMr;
  std::vector<std::int16_t> an(m_pad * lda);
  const std::int64_t max_a =
      detail::narrow_rows_avx2(a.data(), m_dim, k_dim, an.data(), lda);
  if (max_a < 0) return std::nullopt;
  const int panels = (n_dim + kNarrowNr - 1) / kNarrowNr;
  const std::size_t kpairs = lda / 2;
  const std::size_t panel_stride = kpairs * kNarrowNr;
  std::vector<std::uint32_t> bn(static_cast<std::size_t>(panels) *
                                panel_stride);
  const std::int64_t max_b =
      detail::pack_b_pairs_avx2(b.data(), k_dim, n_dim, bn.data());
  if (max_b < 0 || max_a * max_b * k_dim > INT32_MAX) return std::nullopt;

  Matrix<T> c(m_dim, n_dim);
  const std::size_t tasks =
      (static_cast<std::size_t>(m_dim) + kGemmRowsPerTask - 1) /
      kGemmRowsPerTask;
  parallel_map(pool, tasks, [&](std::size_t t) {
    const int r0 = static_cast<int>(t) * kGemmRowsPerTask;
    const int r1 = std::min(m_dim, r0 + kGemmRowsPerTask);
    // Panel-outer: each B panel is reused by all of the task's row tiles
    // while it is in cache.
    for (int p = 0; p < panels; ++p) {
      const int n0 = p * kNarrowNr;
      const int w = std::min(kNarrowNr, n_dim - n0);
      for (int m0 = r0; m0 < r1; m0 += kNarrowMr) {
        std::int32_t acc[kNarrowMr][kNarrowNr] = {};
        detail::gemm_tile_narrow_avx2(an.data() + m0 * lda, lda,
                                      bn.data() + p * panel_stride, kpairs,
                                      acc);
        const int mr = std::min(kNarrowMr, r1 - m0);
        for (int i = 0; i < mr; ++i) {
          T* crow = c.data() + static_cast<std::size_t>(m0 + i) * n_dim + n0;
          for (int j = 0; j < w; ++j) crow[j] = static_cast<T>(acc[i][j]);
        }
      }
    }
    return 0;
  });
  return c;
}
#endif

}  // namespace

MatrixI32 gemm_simd_int(const MatrixI32& a, const MatrixI32& b,
                        ThreadPool* pool) {
  detail::check_gemm_shape(a, b);
  const SimdLevel level = active_simd_level();
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (level >= SimdLevel::kAvx2) {
    if (auto c = gemm_narrow(a, b, pool)) return *std::move(c);
  }
#endif
  const Kernels k = kernels_for(level);
  if (k.tile_int == nullptr) return gemm_blocked_int(a, b, pool);
  return detail::gemm_int_panels(a, b, pool, k.tile_int);
}

MatrixF32 gemm_simd_f32(const MatrixF32& a, const MatrixF32& b,
                        ThreadPool* pool) {
  detail::check_gemm_shape(a, b);
  const SimdLevel level = active_simd_level();
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (level >= SimdLevel::kAvx2) {
    if (auto c = gemm_narrow(a, b, pool)) return *std::move(c);
  }
#endif
  const Kernels k = kernels_for(level);
  if (k.tile_f32 == nullptr) return gemm_blocked_f32(a, b, pool);
  return detail::gemm_f32_panels(a, b, pool, k.tile_f32);
}

}  // namespace vitbit
