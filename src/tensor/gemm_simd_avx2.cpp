// AVX2 full-tile microkernels. Compiled with -mavx2 (see
// src/tensor/CMakeLists.txt); only ever called after runtime detection
// reports AVX2 (tensor/simd_level.h).
//
// Bit-identity argument, int: every output element (i, j) sums the exact
// int64 products a[i][k] * b[k][j] over k. int64 addition is associative,
// and the vector kernel adds the same products in the same k order per
// element (lanes merely group different j together), so the final int64
// accumulators equal the scalar tile's exactly.
//
// Bit-identity argument, f32: the scalar tile computes
// acc += double(a) * double(b) per element, rounding once per add (the
// product of two floats is exact in double: 24-bit mantissas multiply into
// 48 bits < 53). The vector kernel performs the same double multiply and
// the same double add per element in the same k order — four j lanes at a
// time — so every intermediate double is bit-identical to the scalar
// recurrence. No FMA is used: fusing would not change values here (the
// products are exact), but mul+add keeps the equivalence self-evident.
//
// The narrow path (gemm_simd_kernels.h) is exact rather than identical in
// its steps: under the bound its callers check, every int32 partial sum
// equals the int64 one, and for floats the exact integer sum S is what the
// double recurrence computes too, so static_cast<float>(S) rounds once,
// exactly as the reference's final cast does.
#include <immintrin.h>

#include <cstring>

#include "tensor/gemm_simd_kernels.h"

namespace vitbit::detail {

void gemm_tile_int_avx2(const std::int32_t* a, std::size_t lda,
                        const std::int32_t* bp, int kdim,
                        std::int64_t acc[kGemmMr][kGemmNr]) {
  static_assert(kGemmMr == 4 && kGemmNr == 8,
                "AVX2 int microkernel is written for 4x8 tiles");
  // Per row: one accumulator of int64 lanes for even j (0,2,4,6) and one
  // for odd j (1,3,5,7) — _mm256_mul_epi32 multiplies the low 32 bits of
  // each 64-bit lane, so the odd columns are exposed by a 64-bit shift.
  __m256i acc_e[kGemmMr], acc_o[kGemmMr];
  for (int i = 0; i < kGemmMr; ++i) {
    acc_e[i] = _mm256_setzero_si256();
    acc_o[i] = _mm256_setzero_si256();
  }
  for (int k = 0; k < kdim; ++k) {
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        bp + static_cast<std::size_t>(k) * kGemmNr));
    const __m256i b_odd = _mm256_srli_epi64(b, 32);
    for (int i = 0; i < kGemmMr; ++i) {
      const __m256i ai = _mm256_set1_epi32(a[i * lda + k]);
      acc_e[i] = _mm256_add_epi64(acc_e[i], _mm256_mul_epi32(ai, b));
      acc_o[i] = _mm256_add_epi64(acc_o[i], _mm256_mul_epi32(ai, b_odd));
    }
  }
  for (int i = 0; i < kGemmMr; ++i) {
    alignas(32) std::int64_t e[4], o[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(e), acc_e[i]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(o), acc_o[i]);
    for (int j = 0; j < 4; ++j) {
      acc[i][2 * j] += e[j];
      acc[i][2 * j + 1] += o[j];
    }
  }
}

void gemm_tile_f32_avx2(const float* a, std::size_t lda, const float* bp,
                        int kdim, double acc[kGemmMr][kGemmNr]) {
  static_assert(kGemmMr == 4 && kGemmNr == 8,
                "AVX2 f32 microkernel is written for 4x8 tiles");
  // Per row: 8 double accumulators as two 4-lane registers (j 0-3 / 4-7).
  __m256d acc_lo[kGemmMr], acc_hi[kGemmMr];
  for (int i = 0; i < kGemmMr; ++i) {
    acc_lo[i] = _mm256_setzero_pd();
    acc_hi[i] = _mm256_setzero_pd();
  }
  for (int k = 0; k < kdim; ++k) {
    const __m256 b =
        _mm256_loadu_ps(bp + static_cast<std::size_t>(k) * kGemmNr);
    const __m256d b_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(b));
    const __m256d b_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1));
    for (int i = 0; i < kGemmMr; ++i) {
      const __m256d ai = _mm256_set1_pd(static_cast<double>(a[i * lda + k]));
      acc_lo[i] = _mm256_add_pd(acc_lo[i], _mm256_mul_pd(ai, b_lo));
      acc_hi[i] = _mm256_add_pd(acc_hi[i], _mm256_mul_pd(ai, b_hi));
    }
  }
  // Tiles always arrive zeroed (detail::gemm_f32_panels), and the vector
  // accumulators started from the same +0.0, so a plain store writes the
  // exact scalar-recurrence values.
  for (int i = 0; i < kGemmMr; ++i) {
    _mm256_storeu_pd(&acc[i][0], acc_lo[i]);
    _mm256_storeu_pd(&acc[i][4], acc_hi[i]);
  }
}

namespace {

// Running scan of the values the narrow path loads: lane-wise min and max
// of their int32 images and, for floats, a mask of the values that are
// not exactly their image (non-integers, NaN, +-inf, anything past int32).
// The scalar fields cover the tails.
struct NarrowScan {
  __m256i lo = _mm256_set1_epi32(INT32_MAX);
  __m256i hi = _mm256_set1_epi32(INT32_MIN);
  __m256i bad = _mm256_setzero_si256();
  std::int32_t lo1 = INT32_MAX, hi1 = INT32_MIN;
  bool bad1 = false;

  __m256i load8(const std::int32_t* p) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    lo = _mm256_min_epi32(lo, x);
    hi = _mm256_max_epi32(hi, x);
    return x;
  }
  __m256i load8(const float* p) {
    const __m256 x = _mm256_loadu_ps(p);
    // cvttps yields INT32_MIN for NaN and anything past int32, which the
    // min then flags; a value that does not convert back exactly is not
    // an integer (the unordered compare also catches NaN).
    const __m256i i = _mm256_cvttps_epi32(x);
    const __m256 differs =
        _mm256_cmp_ps(_mm256_cvtepi32_ps(i), x, _CMP_NEQ_UQ);
    bad = _mm256_or_si256(bad, _mm256_castps_si256(differs));
    lo = _mm256_min_epi32(lo, i);
    hi = _mm256_max_epi32(hi, i);
    return i;
  }
  std::int32_t load1(std::int32_t v) {
    lo1 = v < lo1 ? v : lo1;
    hi1 = v > hi1 ? v : hi1;
    return v;
  }
  std::int32_t load1(float v) {
    // Range first: the cast below is only defined inside int32.
    if (!(v >= -32767.0f && v <= 32767.0f)) {
      bad1 = true;
      return 0;
    }
    const auto i = static_cast<std::int32_t>(v);
    bad1 = bad1 || static_cast<float>(i) != v;
    return load1(i);
  }

  // True while every value loaded so far may take the narrow path.
  bool ok() const {
    const __m256i out_of_range = _mm256_or_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(-32767), lo),
        _mm256_cmpgt_epi32(hi, _mm256_set1_epi32(32767)));
    const __m256i refused = _mm256_or_si256(out_of_range, bad);
    return _mm256_testz_si256(refused, refused) != 0 && !bad1 &&
           lo1 >= -32767 && hi1 <= 32767;
  }

  // max|v| over every value loaded (0 if none), or -1 unless ok().
  std::int32_t max_abs() const {
    if (!ok()) return -1;
    alignas(32) std::int32_t l[8], h[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(l), lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(h), hi);
    std::int32_t m = 0;
    for (int j = 0; j < 8; ++j) {
      m = -l[j] > m ? -l[j] : m;
      m = h[j] > m ? h[j] : m;
    }
    m = -lo1 > m ? -lo1 : m;
    return hi1 > m ? hi1 : m;
  }
};

template <typename T>
std::int32_t narrow_rows(const T* a, int m, int k, std::int16_t* out,
                         std::size_t lda) {
  NarrowScan scan;
  for (int r = 0; r < m; ++r) {
    const T* src = a + static_cast<std::size_t>(r) * k;
    std::int16_t* dst = out + static_cast<std::size_t>(r) * lda;
    int c = 0;
    for (; c + 16 <= k; c += 16) {
      const __m256i x0 = scan.load8(src + c);
      const __m256i x1 = scan.load8(src + c + 8);
      // packs works per 128-bit half; the permute restores column order.
      // Out-of-range values saturate here and fail the scan anyway.
      const __m256i packed =
          _mm256_permute4x64_epi64(_mm256_packs_epi32(x0, x1), 0xD8);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + c), packed);
    }
    for (; c < k; ++c) dst[c] = static_cast<std::int16_t>(scan.load1(src[c]));
    if (!scan.ok()) return -1;
  }
  return scan.max_abs();
}

template <typename T>
std::int32_t pack_b_pairs(const T* b, int k, int n, std::uint32_t* out) {
  NarrowScan scan;
  const int full_panels = n / kNarrowNr;
  const int n_full = full_panels * kNarrowNr;
  const std::size_t panel_stride =
      static_cast<std::size_t>(k + 1) / 2 * kNarrowNr;
  for (int k0 = 0; k0 < k; k0 += 2) {
    const T* row0 = b + static_cast<std::size_t>(k0) * n;
    const T* row1 = k0 + 1 < k ? row0 + n : nullptr;  // odd k: zero row
    std::uint32_t* dst = out + static_cast<std::size_t>(k0 / 2) * kNarrowNr;
    for (int n0 = 0; n0 < n_full; n0 += 8) {
      const __m256i lo = scan.load8(row0 + n0);
      const __m256i hi =
          row1 != nullptr ? scan.load8(row1 + n0) : _mm256_setzero_si256();
      // Low 16 bits of each lo element, then the low 16 bits of hi above.
      const __m256i words =
          _mm256_blend_epi16(lo, _mm256_slli_epi32(hi, 16), 0xAA);
      std::uint32_t* to = dst + n0 / kNarrowNr * panel_stride + n0 % kNarrowNr;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(to), words);
    }
    for (int j = n_full; j < n; ++j) {
      const auto lo = static_cast<std::uint16_t>(scan.load1(row0[j]));
      const auto hi = static_cast<std::uint16_t>(
          row1 != nullptr ? scan.load1(row1[j]) : 0);
      const std::uint32_t word = static_cast<std::uint32_t>(lo) |
                                 static_cast<std::uint32_t>(hi) << 16;
      dst[full_panels * panel_stride + (j - n_full)] = word;
    }
    if (!scan.ok()) return -1;
  }
  return scan.max_abs();
}

}  // namespace

std::int32_t narrow_rows_avx2(const std::int32_t* a, int m, int k,
                              std::int16_t* out, std::size_t lda) {
  return narrow_rows(a, m, k, out, lda);
}

std::int32_t narrow_rows_avx2(const float* a, int m, int k,
                              std::int16_t* out, std::size_t lda) {
  return narrow_rows(a, m, k, out, lda);
}

std::int32_t pack_b_pairs_avx2(const std::int32_t* b, int k, int n,
                               std::uint32_t* out) {
  return pack_b_pairs(b, k, n, out);
}

std::int32_t pack_b_pairs_avx2(const float* b, int k, int n,
                               std::uint32_t* out) {
  return pack_b_pairs(b, k, n, out);
}

void gemm_tile_narrow_avx2(const std::int16_t* a, std::size_t lda,
                           const std::uint32_t* bp, std::size_t kpairs,
                           std::int32_t acc[kNarrowMr][kNarrowNr]) {
  static_assert(kNarrowMr == 4 && kNarrowNr == 16,
                "AVX2 narrow microkernel is written for 4x16 tiles");
  // 8 accumulators + 2 B registers + a broadcast + a product fit the 16
  // ymm registers; a 6-row tile spills. The rows are unrolled by hand so
  // the accumulators stay in registers at -O2 too.
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  // Row i's k-pair q (a[i][2q] low, a[i][2q + 1] high) as one broadcast.
  const auto pair = [&](int i, std::size_t q) {
    std::int32_t v = 0;
    std::memcpy(&v, a + i * lda + 2 * q, sizeof v);
    return _mm256_set1_epi32(v);
  };
  for (std::size_t q = 0; q < kpairs; ++q) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + q * 16));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * 16 + 8));
    __m256i ai = pair(0, q);
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(ai, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(ai, b1));
    ai = pair(1, q);
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(ai, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(ai, b1));
    ai = pair(2, q);
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(ai, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(ai, b1));
    ai = pair(3, q);
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(ai, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(ai, b1));
  }
  const auto store = [&](int i, __m256i lo, __m256i hi) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&acc[i][0]), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&acc[i][8]), hi);
  };
  store(0, c00, c01);
  store(1, c10, c11);
  store(2, c20, c21);
  store(3, c30, c31);
}

}  // namespace vitbit::detail
