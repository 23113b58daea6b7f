// Internal: AVX2 kernel entry points for swar/packed_span.h. Only
// declared when the TU was compiled (VITBIT_SIMD_HAVE_AVX2, set by the
// build per compiler support); only *called* after runtime detection, via
// the dispatch in packed_span.cpp. Pack/unpack/min kernels additionally
// require a uniform layout (num_lanes * field_bits == 32, field_bits 8 or
// 16) — the dispatcher guarantees it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "swar/layout.h"

namespace vitbit::swar::detail {

#if defined(VITBIT_SIMD_HAVE_AVX2)

// Encodes count values into words (full groups vectorized, tail scalar).
// Returns false when any value is outside the layout's value range; the
// caller then re-runs the scalar path, which throws the exact per-value
// CheckError message.
bool pack_span_avx2(const std::int32_t* values, std::size_t count,
                    const LaneLayout& layout, std::uint32_t* out_words);

// Decodes `count` lane values from words (lane-0-first order).
void unpack_span_avx2(const std::uint32_t* words, std::size_t count,
                      const LaneLayout& layout, std::int32_t* out_values);

// Word-wise wrapping arithmetic (SWAR lane semantics are carried by the
// caller's headroom guarantees, exactly as in the scalar primitives).
void add_u32_span_avx2(const std::uint32_t* a, const std::uint32_t* b,
                       std::uint32_t* r, std::size_t n);
void sub_u32_span_avx2(const std::uint32_t* a, const std::uint32_t* b,
                       std::uint32_t* r, std::size_t n);
void mullo_u32_span_avx2(const std::uint32_t* a, std::uint32_t c,
                         std::uint32_t* r, std::size_t n);
// r[i] = (a[i] >> s) & keep — the whole-register shift + lane-crossing
// cleanup of swar_shift_right with the mask precomputed by the caller.
void shift_mask_u32_span_avx2(const std::uint32_t* a, int s,
                              std::uint32_t keep, std::uint32_t* r,
                              std::size_t n);
void and_u32_span_avx2(const std::uint32_t* a, std::uint32_t mask,
                       std::uint32_t* r, std::size_t n);
// Per-lane unsigned min against `word_c`, which holds the constant
// replicated into every field; field_bits selects epu8 vs epu16 min.
void min_lanes_span_avx2(const std::uint32_t* a, std::uint32_t word_c,
                         int field_bits, std::uint32_t* r, std::size_t n);
// swar_lane_shadow_row over `cols` columns (a multiple of 16): per
// 16-column panel, the row sums and the prefix bound state stay in
// registers across all `tiles` tiles and are stored once.
void lane_shadow_row_avx2(const std::int32_t* scalars, const int* tile_ends,
                          std::size_t tiles, const std::int32_t* lane_panels,
                          std::size_t panel_stride, const std::int32_t* lo,
                          const std::int32_t* hi, std::int32_t* sums,
                          std::int32_t* violated, std::size_t cols);

#endif  // VITBIT_SIMD_HAVE_AVX2

}  // namespace vitbit::swar::detail
