// Functional (bit-faithful) packed GEMM: C = A * B where B's columns are
// packed `num_lanes` to a register. Each k-step is one wrapping 32-bit
// multiply-accumulate — exactly the IMAD a GPU INT core would execute — and
// lane spills/corrections follow the tile policy. This is the ground-truth
// implementation the timing model's instruction accounting mirrors.
//
// Every call checks lane bounds exactly: an exact shadow of each lane's
// physical prefix sum flags any step at which a lane left its field
// (PackedGemmStats::overflow_tiles). Two loops compute it:
//  * VITBIT_GEMM=ref — the column-major oracle: one packed column at a
//    time, the packed IMAD executed at every step, every lane decoded and
//    compared in int64.
//  * every other engine — tile-major, with the shadow as the arithmetic.
//    A packed word is sum_lane encoded_lane * 2^(lane * field_bits) mod
//    2^32, so the IMAD's accumulator is sum_lane shadow_lane * 2^(lane *
//    field_bits) mod 2^32; where no prefix leaves its field, extracting it
//    returns exactly the shadow's sums, so the MAC is never run. Per row,
//    one swar_lane_shadow_row pass (vectorized on AVX2 machines) runs all
//    tiles across the row of (packed column x lane) values when a
//    whole-row bound proves int32 exact; a row with a violation, or one
//    the bound does not cover, is redone tile by tile (int64 where a
//    tile's own bound fails), and a violated column without fallback
//    rebuilds its wrapped accumulator from its shadow sums.
// Both produce the same output, the same stats and the same CheckErrors.
#pragma once

#include <cstdint>

#include "swar/pack.h"
#include "swar/tile_policy.h"
#include "tensor/matrix.h"

namespace vitbit::swar {

struct PackedGemmStats {
  // Packed multiply-accumulate instructions executed (one per k-step per
  // packed column per output row) — the quantity packing reduces by the
  // packing factor.
  std::int64_t mac_instructions = 0;
  // Lane-extraction (spill) events: one per packed register per tile end.
  std::int64_t spill_events = 0;
  // Tiles in which a lane's exact prefix bound was violated (possible only
  // in fixed-period mode; adaptive tiles are violation-free by construction).
  std::int64_t overflow_tiles = 0;
  std::int64_t total_tiles = 0;
  double mean_tile_length = 0.0;
};

struct PackedGemmOptions {
  // Where accumulation tiles end. An adaptive tile that violates a lane
  // bound throws CheckError ("adaptive tiles must never violate lane
  // bounds"); fixed-period tiles may violate and are counted.
  TilePolicy tile;
  // In fixed-period mode, replace a violated tile's lanes with the exact
  // shadow values (models a saturation-detect-and-replay fallback). If
  // false, the wrapped (corrupted) lane values are kept — used by tests to
  // demonstrate what overflow does.
  bool fallback_on_overflow = true;
};

// A is MxK (values must fit layout.scalar_bits); B is the packed KxN operand.
// Returns the exact MxN int32 product when no unhandled overflow occurs.
MatrixI32 gemm_packed(const MatrixI32& a, const PackedMatrix& b,
                      const PackedGemmOptions& options = {},
                      PackedGemmStats* stats = nullptr);

// Convenience: packs `b` with `layout` and multiplies.
MatrixI32 gemm_packed(const MatrixI32& a, const MatrixI32& b,
                      const LaneLayout& layout,
                      const PackedGemmOptions& options = {},
                      PackedGemmStats* stats = nullptr);

}  // namespace vitbit::swar
