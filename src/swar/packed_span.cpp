#include "swar/packed_span.h"

#include <algorithm>

#include "common/check.h"
#include "swar/pack.h"
#include "swar/packed_span_kernels.h"
#include "tensor/simd_level.h"

namespace vitbit::swar {

namespace {

// The AVX2 pack/unpack/min kernels assume fields tile the register evenly
// (top_field_bits == field_bits) at a width with native epu8/epu16 ops.
// 2x16 and 4x8 qualify; the 3x10 layout always runs scalar.
bool uniform_fields(const LaneLayout& l) {
  return l.num_lanes * l.field_bits == 32 &&
         (l.field_bits == 8 || l.field_bits == 16);
}

bool avx2_active() {
#if defined(VITBIT_SIMD_HAVE_AVX2)
  return active_simd_level() >= SimdLevel::kAvx2;
#else
  return false;
#endif
}

// Same precondition as the scalar lane-wise ops (packed_simd.cpp): lanes
// must carry unsigned encodings. Enforced here too so the release-mode
// vector paths reject kTopSigned exactly like the scalar paths do.
void require_unsigned_lanes(const LaneLayout& l) {
  VITBIT_CHECK_MSG(l.mode != LaneMode::kTopSigned,
                   "SWAR lane-wise ops require unsigned lane encodings");
}

std::size_t words_for(std::size_t value_count, const LaneLayout& l) {
  const auto lanes = static_cast<std::size_t>(l.num_lanes);
  return (value_count + lanes - 1) / lanes;
}

void pack_span_scalar(std::span<const std::int32_t> values,
                      const LaneLayout& l,
                      std::span<std::uint32_t> out_words) {
  const int L = l.num_lanes;
  std::int32_t lanes[8] = {};
  std::size_t w = 0;
  for (std::size_t v = 0; v < values.size();
       v += static_cast<std::size_t>(L), ++w) {
    for (int lane = 0; lane < L; ++lane) {
      const std::size_t idx = v + static_cast<std::size_t>(lane);
      lanes[lane] = idx < values.size() ? values[idx] : 0;
    }
    out_words[w] = pack_lanes({lanes, static_cast<std::size_t>(L)}, l);
  }
}

// One lane: each word is its value's encoding, the value itself or, in
// kOffset, the value plus the zero point (the lone lane is the top lane,
// whose kTopSigned field is the full 32-bit two's complement). Returns
// false, writing nothing, if any value is out of range.
bool pack_span_one_lane(std::span<const std::int32_t> values,
                        const LaneLayout& l,
                        std::span<std::uint32_t> out_words) {
  const auto lo = static_cast<std::int32_t>(l.value_min());
  const auto hi = static_cast<std::int32_t>(l.value_max());
  bool in_range = true;
  for (const std::int32_t v : values) in_range &= v >= lo && v <= hi;
  if (!in_range) return false;
  const auto offset = static_cast<std::uint32_t>(
      l.mode == LaneMode::kOffset ? l.zero_point() : 0);
  for (std::size_t i = 0; i < values.size(); ++i)
    out_words[i] = static_cast<std::uint32_t>(values[i]) + offset;
  return true;
}

}  // namespace

void pack_span(std::span<const std::int32_t> values, const LaneLayout& l,
               std::span<std::uint32_t> out_words) {
  VITBIT_CHECK(l.valid());
  VITBIT_CHECK(l.num_lanes <= 8);
  VITBIT_CHECK(out_words.size() == words_for(values.size(), l));
  // On a range violation the scalar encoder below throws the exact
  // per-value message.
  if (l.num_lanes == 1 && pack_span_one_lane(values, l, out_words)) return;
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active() && uniform_fields(l)) {
    if (detail::pack_span_avx2(values.data(), values.size(), l,
                               out_words.data()))
      return;
    // Range violation detected: fall through so the scalar encoder throws
    // the exact per-value message.
  }
#endif
  pack_span_scalar(values, l, out_words);
}

void unpack_span(std::span<const std::uint32_t> words, const LaneLayout& l,
                 std::span<std::int32_t> values) {
  VITBIT_CHECK(l.valid());
  VITBIT_CHECK(l.num_lanes <= 8);
  VITBIT_CHECK(words.size() == words_for(values.size(), l));
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active() && uniform_fields(l)) {
    detail::unpack_span_avx2(words.data(), values.size(), l, values.data());
    return;
  }
#endif
  const int L = l.num_lanes;
  std::int32_t lanes[8];
  std::size_t w = 0;
  for (std::size_t v = 0; v < values.size();
       v += static_cast<std::size_t>(L), ++w) {
    unpack_lanes(words[w], l, {lanes, static_cast<std::size_t>(L)});
    for (int lane = 0; lane < L; ++lane) {
      const std::size_t idx = v + static_cast<std::size_t>(lane);
      if (idx < values.size()) values[idx] = lanes[lane];
    }
  }
}

void swar_add_span(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b,
                   std::span<std::uint32_t> r, const LaneLayout& l) {
  VITBIT_CHECK(a.size() == b.size() && a.size() == r.size());
  require_unsigned_lanes(l);
#if defined(NDEBUG) && defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active()) {
    detail::add_u32_span_avx2(a.data(), b.data(), r.data(), a.size());
    return;
  }
#endif
  // Debug builds keep the per-lane overflow checks of swar_add.
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = swar_add(a[i], b[i], l);
}

void swar_sub_span(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b,
                   std::span<std::uint32_t> r, const LaneLayout& l) {
  VITBIT_CHECK(a.size() == b.size() && a.size() == r.size());
  require_unsigned_lanes(l);
#if defined(NDEBUG) && defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active()) {
    detail::sub_u32_span_avx2(a.data(), b.data(), r.data(), a.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = swar_sub(a[i], b[i], l);
}

void swar_scalar_mul_span(std::span<const std::uint32_t> a, std::uint32_t c,
                          std::span<std::uint32_t> r, const LaneLayout& l) {
  VITBIT_CHECK(a.size() == r.size());
  require_unsigned_lanes(l);
#if defined(NDEBUG) && defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active()) {
    detail::mullo_u32_span_avx2(a.data(), c, r.data(), a.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < a.size(); ++i)
    r[i] = swar_scalar_mul(a[i], c, l);
}

void swar_shift_right_span(std::span<const std::uint32_t> a, int s,
                           std::span<std::uint32_t> r, const LaneLayout& l) {
  VITBIT_CHECK(a.size() == r.size());
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active() && !a.empty()) {
    // Precompute the lane-crossing cleanup mask once per span (the scalar
    // primitive rebuilds it per word).
    std::uint32_t field_keep = 0;
    for (int lane = 0; lane < l.num_lanes; ++lane) {
      const bool top = lane == l.num_lanes - 1;
      const int width = top ? l.top_field_bits() : l.field_bits;
      field_keep |= (low_mask32(width) >> s) << (lane * l.field_bits);
    }
    // Validate s (and unsigned-lane mode) exactly as the scalar op does.
    (void)swar_shift_right(a[0], s, l);
    detail::shift_mask_u32_span_avx2(a.data(), s, field_keep, r.data(),
                                     a.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < a.size(); ++i)
    r[i] = swar_shift_right(a[i], s, l);
}

void swar_mask_low_span(std::span<const std::uint32_t> a, int s,
                        std::span<std::uint32_t> r, const LaneLayout& l) {
  VITBIT_CHECK(a.size() == r.size());
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active() && !a.empty()) {
    std::uint32_t m = 0;
    for (int lane = 0; lane < l.num_lanes; ++lane)
      m |= low_mask32(s) << (lane * l.field_bits);
    (void)swar_mask_low(a[0], s, l);
    detail::and_u32_span_avx2(a.data(), m, r.data(), a.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < a.size(); ++i)
    r[i] = swar_mask_low(a[i], s, l);
}

void swar_min_const_span(std::span<const std::uint32_t> a, std::uint32_t c,
                         std::span<std::uint32_t> r, const LaneLayout& l) {
  VITBIT_CHECK(a.size() == r.size());
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active() && uniform_fields(l) && !a.empty() &&
      c <= low_mask32(l.field_bits)) {
    std::uint32_t word_c = 0;
    for (int shift = 0; shift < 32; shift += l.field_bits)
      word_c |= c << shift;
    (void)swar_min_const(a[0], c, l);  // unsigned-lane mode check
    detail::min_lanes_span_avx2(a.data(), word_c, l.field_bits, r.data(),
                                a.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < a.size(); ++i)
    r[i] = swar_min_const(a[i], c, l);
}

void swar_lane_shadow_row(std::span<const std::int32_t> scalars,
                          std::span<const int> tile_ends,
                          std::span<const std::int32_t> lane_panels,
                          std::size_t panel_stride,
                          std::span<const std::int32_t> lo,
                          std::span<const std::int32_t> hi,
                          std::span<std::int32_t> sums,
                          std::span<std::int32_t> violated) {
  const std::size_t cols = lo.size();
  constexpr auto kPanel = static_cast<std::size_t>(kShadowPanel);
  VITBIT_CHECK(cols % kPanel == 0 && hi.size() == cols &&
               sums.size() == cols && violated.size() == cols);
  for (std::size_t j = 0; j < cols; ++j) VITBIT_CHECK(lo[j] <= hi[j]);
  int prev = 0;
  for (const int end : tile_ends) {
    VITBIT_CHECK_MSG(end > prev, "tile ends must increase");
    prev = end;
  }
  VITBIT_CHECK_MSG(static_cast<std::size_t>(prev) == scalars.size(),
                   "the last tile must end at step " << scalars.size());
  const std::size_t panels = cols / kPanel;
  const std::size_t panel_len = scalars.size() * kPanel;
  VITBIT_CHECK(panels == 0 || panel_stride >= panel_len);
  VITBIT_CHECK(panels == 0 ||
               (panels - 1) * panel_stride + panel_len <= lane_panels.size());
#if defined(VITBIT_SIMD_HAVE_AVX2)
  if (avx2_active()) {
    detail::lane_shadow_row_avx2(scalars.data(), tile_ends.data(),
                                 tile_ends.size(), lane_panels.data(),
                                 panel_stride, lo.data(), hi.data(),
                                 sums.data(), violated.data(), cols);
    return;
  }
#endif
  // Wrapping uint32, as the AVX2 kernel: each tile's sum starts at -lo,
  // and a prefix p is inside [lo, hi] iff p - lo <= hi - lo as unsigned.
  for (std::size_t j = 0; j < cols; j += kPanel) {
    std::uint32_t start[kPanel], range[kPanel];
    std::uint32_t row[kPanel] = {}, peak[kPanel] = {};
    for (std::size_t c = 0; c < kPanel; ++c) {
      start[c] = 0u - static_cast<std::uint32_t>(lo[j + c]);
      range[c] = static_cast<std::uint32_t>(hi[j + c]) + start[c];
    }
    const std::int32_t* x = lane_panels.data() + j / kPanel * panel_stride;
    std::size_t s = 0;
    for (const int end : tile_ends) {
      std::uint32_t t[kPanel];
      std::copy_n(start, kPanel, t);
      for (; s < static_cast<std::size_t>(end); ++s, x += kPanel) {
        const auto e = static_cast<std::uint32_t>(scalars[s]);
        for (std::size_t c = 0; c < kPanel; ++c) {
          t[c] += e * static_cast<std::uint32_t>(x[c]);
          peak[c] = std::max(peak[c], t[c]);
        }
      }
      for (std::size_t c = 0; c < kPanel; ++c) row[c] += t[c] - start[c];
    }
    for (std::size_t c = 0; c < kPanel; ++c) {
      sums[j + c] = static_cast<std::int32_t>(row[c]);
      violated[j + c] = peak[c] > range[c] ? -1 : 0;
    }
  }
}

}  // namespace vitbit::swar
