// Span (bulk) forms of the SWAR primitives: pack/unpack of contiguous
// value runs and word-wise lane ops over contiguous word runs. These are
// the vectorization seam of the SWAR layer — on AVX2 machines the uniform
// layouts (num_lanes * field_bits == 32, i.e. 2x16 and 4x8) run through
// the intrinsic kernels in packed_span_avx2.cpp; every other layout (3x10)
// and every lower SIMD tier runs the scalar per-word primitives from
// swar/pack.h and swar/packed_simd.h. Both paths compute the identical
// wrapping 32-bit arithmetic, so results are lane-exact regardless of tier
// (VITBIT_SIMD_LEVEL flips the implementation, never the answer). The
// lane shadow of gemm_packed's tile-major loop, swar_lane_shadow_row, does
// not depend on the layout: its AVX2 kernel runs for every layout, and
// the none and sse tiers run a portable loop with the same arithmetic.
//
// Debug builds always take the scalar path for the ops that carry
// per-lane overflow/borrow VITBIT_CHECKs (add, sub, scalar_mul) so those
// diagnostics are never skipped; the checks vanish in release either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "swar/layout.h"
#include "swar/packed_simd.h"

namespace vitbit::swar {

// Encodes values[i*L + lane] (lane 0 first) into out_words[i]; the final
// word is zero-value-padded when values.size() is not a multiple of
// num_lanes. Requires out_words.size() == ceil(values.size() / L). Throws
// CheckError (same message as pack_lanes) on any out-of-range value.
void pack_span(std::span<const std::int32_t> values, const LaneLayout& layout,
               std::span<std::uint32_t> out_words);

// Decodes the first values.size() lanes of `words` (lane-0-first order).
// Requires words.size() == ceil(values.size() / L).
void unpack_span(std::span<const std::uint32_t> words,
                 const LaneLayout& layout, std::span<std::int32_t> values);

// r[i] = swar_add(a[i], b[i]); a, b, r must have equal sizes (r may alias
// a or b — each word is read before it is written).
void swar_add_span(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b,
                   std::span<std::uint32_t> r, const LaneLayout& layout);

// r[i] = swar_sub(a[i], b[i]).
void swar_sub_span(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b,
                   std::span<std::uint32_t> r, const LaneLayout& layout);

// r[i] = swar_scalar_mul(a[i], c).
void swar_scalar_mul_span(std::span<const std::uint32_t> a, std::uint32_t c,
                          std::span<std::uint32_t> r,
                          const LaneLayout& layout);

// r[i] = swar_shift_right(a[i], s).
void swar_shift_right_span(std::span<const std::uint32_t> a, int s,
                           std::span<std::uint32_t> r,
                           const LaneLayout& layout);

// r[i] = swar_mask_low(a[i], s).
void swar_mask_low_span(std::span<const std::uint32_t> a, int s,
                        std::span<std::uint32_t> r, const LaneLayout& layout);

// r[i] = swar_min_const(a[i], c).
void swar_min_const_span(std::span<const std::uint32_t> a, std::uint32_t c,
                         std::span<std::uint32_t> r,
                         const LaneLayout& layout);

// Columns per panel of swar_lane_shadow_row's lane operand: the sums and
// bound state of one panel stay in AVX2 registers for a whole row.
inline constexpr int kShadowPanel = 16;

// Exact lane shadow of one output row of gemm_packed, all of its
// accumulation tiles in one pass per panel. Column j of the lane operand
// is one (packed column, lane) pair holding that lane's *encoded* value;
// columns are stored in panels of kShadowPanel, so column j's step-s
// entry is
//   lane_panels[j / kShadowPanel * panel_stride + s * kShadowPanel
//               + j % kShadowPanel].
// tile_ends are the tiles' exclusive end steps, strictly increasing, the
// last equal to scalars.size(); each tile's sum starts at 0. Then
//   sums[j]     = sum over all steps s of scalars[s] * entry(s, j), the
//                 row sum of the tiles' sums;
//   violated[j] = -1 if any prefix of any tile's sum left [lo[j], hi[j]],
//                 else 0.
// lo, hi, sums and violated all have the column count, a multiple of
// kShadowPanel, with lo[j] <= hi[j]; every entry must lie inside
// lane_panels. The caller guarantees that sum_s |scalars[s]| * max|entry|
// <= INT32_MAX, so every prefix and the row sum are exact in int32.
void swar_lane_shadow_row(std::span<const std::int32_t> scalars,
                          std::span<const int> tile_ends,
                          std::span<const std::int32_t> lane_panels,
                          std::size_t panel_stride,
                          std::span<const std::int32_t> lo,
                          std::span<const std::int32_t> hi,
                          std::span<std::int32_t> sums,
                          std::span<std::int32_t> violated);

}  // namespace vitbit::swar
