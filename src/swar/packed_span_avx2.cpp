// AVX2 kernels for the SWAR span layer (packed_span.h). Compiled with
// -mavx2; called only after runtime detection. Every kernel computes the
// same wrapping 32-bit arithmetic as the scalar primitives, so outputs
// are bit-identical — vectorization changes which words are in flight at
// once, never the per-word result.
#include <immintrin.h>

#include "swar/pack.h"
#include "swar/packed_span_kernels.h"

namespace vitbit::swar::detail {

namespace {

// Per-position encode offsets for a uniform layout: lower lanes always add
// the zero-point; the top lane adds it only in kOffset mode (kTopSigned
// stores the top lane as raw two's complement, which the field mask
// produces from (v + 0)).
std::int32_t lane_offset(const LaneLayout& l, int lane) {
  const bool top = lane == l.num_lanes - 1;
  if (top && l.mode != LaneMode::kOffset) return 0;
  return static_cast<std::int32_t>(l.zero_point());
}

}  // namespace

bool pack_span_avx2(const std::int32_t* values, std::size_t count,
                    const LaneLayout& l, std::uint32_t* out_words) {
  const int L = l.num_lanes;
  const std::size_t full_values = count - count % static_cast<std::size_t>(L);
  const __m256i lo =
      _mm256_set1_epi32(static_cast<std::int32_t>(l.value_min()));
  const __m256i hi =
      _mm256_set1_epi32(static_cast<std::int32_t>(l.value_max()));
  const __m256i field_mask = _mm256_set1_epi32(
      static_cast<std::int32_t>(low_mask32(l.field_bits)));
  __m256i bad = _mm256_setzero_si256();
  std::size_t v = 0;
  std::size_t w = 0;
  if (l.field_bits == 16) {
    // 8 values -> 4 words. Elements alternate lane0/lane1 (= value order).
    const __m256i off = _mm256_setr_epi32(
        lane_offset(l, 0), lane_offset(l, 1), lane_offset(l, 0),
        lane_offset(l, 1), lane_offset(l, 0), lane_offset(l, 1),
        lane_offset(l, 0), lane_offset(l, 1));
    const __m256i gather = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    for (; v + 8 <= full_values; v += 8, w += 4) {
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + v));
      bad = _mm256_or_si256(bad, _mm256_cmpgt_epi32(lo, x));
      bad = _mm256_or_si256(bad, _mm256_cmpgt_epi32(x, hi));
      __m256i e = _mm256_and_si256(_mm256_add_epi32(x, off), field_mask);
      // Merge each 64-bit pair [lane0 | lane1<<32] into one 32-bit word
      // lane0 | lane1<<16, then compact the four words to the low lane.
      e = _mm256_or_si256(e, _mm256_srli_epi64(e, 16));
      const __m256i packed = _mm256_permutevar8x32_epi32(e, gather);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out_words + w),
                       _mm256_castsi256_si128(packed));
    }
  } else {  // field_bits == 8
    // 8 values -> 2 words.
    const __m256i off = _mm256_setr_epi32(
        lane_offset(l, 0), lane_offset(l, 1), lane_offset(l, 2),
        lane_offset(l, 3), lane_offset(l, 0), lane_offset(l, 1),
        lane_offset(l, 2), lane_offset(l, 3));
    // Byte 0 of each 32-bit element, compacted to bytes 0-3 per 128-bit
    // half (the rest zeroed).
    const __m256i byte_gather = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i word_gather = _mm256_setr_epi32(0, 4, 0, 4, 0, 4, 0, 4);
    for (; v + 8 <= full_values; v += 8, w += 2) {
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + v));
      bad = _mm256_or_si256(bad, _mm256_cmpgt_epi32(lo, x));
      bad = _mm256_or_si256(bad, _mm256_cmpgt_epi32(x, hi));
      const __m256i e =
          _mm256_and_si256(_mm256_add_epi32(x, off), field_mask);
      const __m256i packed = _mm256_permutevar8x32_epi32(
          _mm256_shuffle_epi8(e, byte_gather), word_gather);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out_words + w),
                       _mm256_castsi256_si128(packed));
    }
  }
  if (_mm256_movemask_epi8(bad) != 0) return false;
  // Scalar tail: remaining full groups plus the zero-padded partial word.
  std::int32_t lanes[8] = {};
  for (; v < count; v += static_cast<std::size_t>(L), ++w) {
    for (int lane = 0; lane < L; ++lane) {
      const std::size_t idx = v + static_cast<std::size_t>(lane);
      lanes[lane] = idx < count ? values[idx] : 0;
    }
    out_words[w] = pack_lanes({lanes, static_cast<std::size_t>(L)}, l);
  }
  return true;
}

void unpack_span_avx2(const std::uint32_t* words, std::size_t count,
                      const LaneLayout& l, std::int32_t* out_values) {
  const int L = l.num_lanes;
  const std::size_t full_values = count - count % static_cast<std::size_t>(L);
  std::size_t v = 0;
  std::size_t w = 0;
  if (l.field_bits == 16) {
    const __m256i off = _mm256_setr_epi32(
        lane_offset(l, 0), lane_offset(l, 1), lane_offset(l, 0),
        lane_offset(l, 1), lane_offset(l, 0), lane_offset(l, 1),
        lane_offset(l, 0), lane_offset(l, 1));
    for (; v + 8 <= full_values; v += 8, w += 4) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(words + w));
      __m256i d = _mm256_cvtepu16_epi32(x);
      if (l.mode == LaneMode::kTopSigned) {
        // Top (odd) positions are raw two's complement: sign-extend.
        d = _mm256_blend_epi32(d, _mm256_cvtepi16_epi32(x), 0xAA);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_values + v),
                          _mm256_sub_epi32(d, off));
    }
  } else {  // field_bits == 8
    const __m256i off = _mm256_setr_epi32(
        lane_offset(l, 0), lane_offset(l, 1), lane_offset(l, 2),
        lane_offset(l, 3), lane_offset(l, 0), lane_offset(l, 1),
        lane_offset(l, 2), lane_offset(l, 3));
    for (; v + 8 <= full_values; v += 8, w += 2) {
      const __m128i x = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(words + w));
      __m256i d = _mm256_cvtepu8_epi32(x);
      if (l.mode == LaneMode::kTopSigned) {
        // Top lane = positions 3 and 7.
        d = _mm256_blend_epi32(d, _mm256_cvtepi8_epi32(x), 0x88);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_values + v),
                          _mm256_sub_epi32(d, off));
    }
  }
  // Scalar tail, including the final partial word.
  std::int32_t lanes[8];
  for (; v < count; v += static_cast<std::size_t>(L), ++w) {
    unpack_lanes(words[w], l, {lanes, static_cast<std::size_t>(L)});
    for (int lane = 0; lane < L; ++lane) {
      const std::size_t idx = v + static_cast<std::size_t>(lane);
      if (idx < count) out_values[idx] = lanes[lane];
    }
  }
}

void add_u32_span_avx2(const std::uint32_t* a, const std::uint32_t* b,
                       std::uint32_t* r, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i),
                        _mm256_add_epi32(x, y));
  }
  for (; i < n; ++i) r[i] = a[i] + b[i];
}

void sub_u32_span_avx2(const std::uint32_t* a, const std::uint32_t* b,
                       std::uint32_t* r, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i),
                        _mm256_sub_epi32(x, y));
  }
  for (; i < n; ++i) r[i] = a[i] - b[i];
}

void mullo_u32_span_avx2(const std::uint32_t* a, std::uint32_t c,
                         std::uint32_t* r, std::size_t n) {
  const __m256i cv = _mm256_set1_epi32(static_cast<std::int32_t>(c));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i),
                        _mm256_mullo_epi32(x, cv));
  }
  for (; i < n; ++i) r[i] = a[i] * c;
}

void shift_mask_u32_span_avx2(const std::uint32_t* a, int s,
                              std::uint32_t keep, std::uint32_t* r,
                              std::size_t n) {
  const __m256i kv = _mm256_set1_epi32(static_cast<std::int32_t>(keep));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i),
                        _mm256_and_si256(_mm256_srli_epi32(x, s), kv));
  }
  for (; i < n; ++i) r[i] = (a[i] >> s) & keep;
}

void and_u32_span_avx2(const std::uint32_t* a, std::uint32_t mask,
                       std::uint32_t* r, std::size_t n) {
  const __m256i mv = _mm256_set1_epi32(static_cast<std::int32_t>(mask));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i),
                        _mm256_and_si256(x, mv));
  }
  for (; i < n; ++i) r[i] = a[i] & mask;
}

void min_lanes_span_avx2(const std::uint32_t* a, std::uint32_t word_c,
                         int field_bits, std::uint32_t* r, std::size_t n) {
  const __m256i cv = _mm256_set1_epi32(static_cast<std::int32_t>(word_c));
  std::size_t i = 0;
  if (field_bits == 16) {
    for (; i + 8 <= n; i += 8) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i),
                          _mm256_min_epu16(x, cv));
    }
  } else {
    for (; i + 8 <= n; i += 8) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i),
                          _mm256_min_epu8(x, cv));
    }
  }
  for (; i < n; ++i) {
    // Scalar per-lane min against the replicated constant.
    std::uint32_t out = 0;
    for (int shift = 0; shift < 32; shift += field_bits) {
      const std::uint32_t mask = low_mask32(field_bits) << shift;
      const std::uint32_t va = (a[i] & mask) >> shift;
      const std::uint32_t vc = (word_c & mask) >> shift;
      out |= (va < vc ? va : vc) << shift;
    }
    r[i] = out;
  }
}

void lane_shadow_row_avx2(const std::int32_t* scalars, const int* tile_ends,
                          std::size_t tiles, const std::int32_t* lane_panels,
                          std::size_t panel_stride, const std::int32_t* lo,
                          const std::int32_t* hi, std::int32_t* sums,
                          std::int32_t* violated, std::size_t cols) {
  const auto load = [](const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  const auto store = [](std::int32_t* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  };
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_cmpeq_epi32(zero, zero);
  for (std::size_t j = 0; j < cols; j += 16, lane_panels += panel_stride) {
    // Each tile's sum starts at -lo, so a prefix p is inside [lo, hi]
    // iff p - lo <= hi - lo as unsigned: one running unsigned max per
    // column covers every prefix of every tile.
    const __m256i start0 = _mm256_sub_epi32(zero, load(lo + j));
    const __m256i start1 = _mm256_sub_epi32(zero, load(lo + j + 8));
    const __m256i range0 = _mm256_add_epi32(load(hi + j), start0);
    const __m256i range1 = _mm256_add_epi32(load(hi + j + 8), start1);
    __m256i row0 = zero, row1 = zero, peak0 = zero, peak1 = zero;
    __m256i s0 = start0, s1 = start1;
    const auto step = [&](std::int32_t scalar, const std::int32_t* x) {
      const __m256i e = _mm256_set1_epi32(scalar);
      s0 = _mm256_add_epi32(s0, _mm256_mullo_epi32(e, load(x)));
      s1 = _mm256_add_epi32(s1, _mm256_mullo_epi32(e, load(x + 8)));
      peak0 = _mm256_max_epu32(peak0, s0);
      peak1 = _mm256_max_epu32(peak1, s1);
    };
    const std::int32_t* x = lane_panels;
    std::size_t s = 0;
    for (std::size_t t = 0; t < tiles; ++t) {
      const auto end = static_cast<std::size_t>(tile_ends[t]);
      s0 = start0;
      s1 = start1;
      // Two steps per iteration: GCC then emits half the register copies
      // per step that it puts in a one-step loop.
      for (; s + 2 <= end; s += 2, x += 32) {
        step(scalars[s], x);
        step(scalars[s + 1], x + 16);
      }
      if (s < end) {
        step(scalars[s], x);
        ++s;
        x += 16;
      }
      row0 = _mm256_add_epi32(row0, _mm256_sub_epi32(s0, start0));
      row1 = _mm256_add_epi32(row1, _mm256_sub_epi32(s1, start1));
    }
    const __m256i ok0 = _mm256_cmpeq_epi32(_mm256_max_epu32(peak0, range0),
                                           range0);
    const __m256i ok1 = _mm256_cmpeq_epi32(_mm256_max_epu32(peak1, range1),
                                           range1);
    store(sums + j, row0);
    store(sums + j + 8, row1);
    store(violated + j, _mm256_xor_si256(ok0, ones));
    store(violated + j + 8, _mm256_xor_si256(ok1, ones));
  }
}

}  // namespace vitbit::swar::detail
