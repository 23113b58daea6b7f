#include "swar/packed_gemm.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <vector>

#include "swar/packed_span.h"
#include "tensor/gemm_dispatch.h"

namespace vitbit::swar {

namespace {

constexpr int kMaxLanes = 8;
constexpr auto kPanel = static_cast<std::size_t>(kShadowPanel);

using LaneSums = std::array<std::int64_t, kMaxLanes>;

// Encoded scalar as the 32-bit multiplicand the IMAD would see.
std::uint32_t encode_scalar(std::int32_t a, const LaneLayout& l) {
  VITBIT_CHECK_MSG(a >= l.scalar_min() && a <= l.scalar_max(),
                   "scalar " << a << " out of range for " << l.to_string());
  if (l.mode == LaneMode::kOffset)
    return static_cast<std::uint32_t>(a + l.scalar_zero_point());
  return static_cast<std::uint32_t>(a);  // raw (two's complement if signed)
}

// Extracts the physical lane partial sums from a 32-bit accumulator.
// Exact iff every lane's prefix sum stayed within its field bound.
void extract_lanes(std::uint32_t acc, const LaneLayout& l, LaneSums& out) {
  if (l.mode == LaneMode::kTopSigned) {
    // Lower lanes hold signed sums of non-negative encodings times signed
    // scalars; sign-extended field extraction, subtracting as we go.
    std::int64_t x = static_cast<std::int32_t>(acc);
    for (int lane = 0; lane < l.num_lanes - 1; ++lane) {
      const std::int64_t s =
          sign_extend(static_cast<std::uint64_t>(x) & low_mask64(l.field_bits),
                      l.field_bits);
      out[static_cast<std::size_t>(lane)] = s;
      x = (x - s) >> l.field_bits;
    }
    out[static_cast<std::size_t>(l.num_lanes - 1)] = x;
  } else {
    // Unsigned / offset: all lane sums are non-negative and monotone.
    std::uint32_t x = acc;
    for (int lane = 0; lane < l.num_lanes - 1; ++lane) {
      out[static_cast<std::size_t>(lane)] = x & low_mask32(l.field_bits);
      x >>= l.field_bits;
    }
    out[static_cast<std::size_t>(l.num_lanes - 1)] = x;
  }
}

// Per-lane prefix-sum caps for violation tracking.
struct LaneCaps {
  std::int64_t lo[kMaxLanes];
  std::int64_t hi[kMaxLanes];
};

LaneCaps lane_caps(const LaneLayout& l) {
  LaneCaps caps{};
  for (int lane = 0; lane < l.num_lanes; ++lane) {
    const bool top = lane == l.num_lanes - 1;
    const int width = top ? l.top_field_bits() : l.field_bits;
    const bool signed_sum = l.mode == LaneMode::kTopSigned;
    if (signed_sum) {
      caps.lo[lane] = -(std::int64_t{1} << (width - 1));
      caps.hi[lane] = (std::int64_t{1} << (width - 1)) - 1;
    } else {
      caps.lo[lane] = 0;
      caps.hi[lane] = (std::int64_t{1} << width) - 1;
    }
  }
  return caps;
}

// Undoing the encodings: a lane's logical tile sum is its physical sum
// minus zero-point * (scalar sum + scalar zero-point * tile length) — for
// every lane except the raw top lane of kTopSigned; both zero points are 0
// in kUnsigned — and, in kOffset, minus scalar zero-point * the lane's
// value sum over the tile. `corr` gets the first term; the callers
// subtract the second.
void lane_corrections(const LaneLayout& l, std::int64_t scalar_sum,
                      std::int64_t t_len, LaneSums& corr) {
  const std::int64_t offset_term =
      l.zero_point() * (scalar_sum + l.scalar_zero_point() * t_len);
  for (int lane = 0; lane < l.num_lanes; ++lane) {
    const bool raw_top =
        l.mode == LaneMode::kTopSigned && lane == l.num_lanes - 1;
    corr[static_cast<std::size_t>(lane)] = raw_top ? 0 : offset_term;
  }
}

// The lane's encoded value in packed word `w`: the field bits it
// physically holds (value + zero point), sign-extended for the raw top
// lane of kTopSigned.
std::int32_t encoded_lane(std::uint32_t w, int lane, const LaneLayout& l) {
  const bool top = lane == l.num_lanes - 1;
  const int width = top ? l.top_field_bits() : l.field_bits;
  const std::uint32_t field = (w >> (lane * l.field_bits)) & low_mask32(width);
  if (top && l.mode == LaneMode::kTopSigned)
    return static_cast<std::int32_t>(sign_extend(field, width));
  return static_cast<std::int32_t>(field);
}

void store_output(std::int64_t v, int m, int col, MatrixI32& c) {
  VITBIT_CHECK_MSG(v >= INT32_MIN && v <= INT32_MAX,
                   "int32 output overflow at (" << m << "," << col << ")");
  c.at(m, col) = static_cast<std::int32_t>(v);
}

// The VITBIT_GEMM=ref oracle: one packed column at a time, each lane
// decoded with PackedMatrix::value at every step and checked against an
// int64 shadow of its exact physical sum.
MatrixI32 gemm_packed_ref(const MatrixI32& a, const PackedMatrix& b,
                          const PackedGemmOptions& options,
                          PackedGemmStats& st) {
  const LaneLayout& l = b.layout();
  const int lanes = l.num_lanes;
  const std::int64_t z = l.zero_point();
  const std::int64_t za = l.scalar_zero_point();
  const LaneCaps caps = lane_caps(l);
  MatrixI32 c(a.rows(), b.orig_cols());
  LaneSums phys{}, shadow{}, totals{}, corr{};
  for (int m = 0; m < a.rows(); ++m) {
    const auto bounds = tile_boundaries(a.row(m), l, options.tile);
    st.mean_tile_length += mean_tile_length(bounds);
    for (int pc = 0; pc < b.packed_cols(); ++pc) {
      totals.fill(0);
      int k0 = 0;
      for (const int k1 : bounds) {
        std::uint32_t acc = 0;
        bool violated = false;
        std::int64_t scalar_sum = 0;  // sum of raw scalars over the tile
        shadow.fill(0);
        for (int k = k0; k < k1; ++k) {
          const std::int32_t raw_a = a.at(m, k);
          acc += encode_scalar(raw_a, l) * b.word(k, pc);  // the packed IMAD
          scalar_sum += raw_a;
          // Exact shadow of each lane's physical sum.
          const std::int64_t enc_a =
              l.mode == LaneMode::kOffset ? raw_a + za : raw_a;
          for (int lane = 0; lane < lanes; ++lane) {
            const bool top = lane == lanes - 1;
            const std::int32_t v = b.value(k, pc, lane);
            const std::int64_t enc_b =
                (l.mode == LaneMode::kTopSigned && top) ? v : v + z;
            shadow[static_cast<std::size_t>(lane)] += enc_a * enc_b;
            if (shadow[static_cast<std::size_t>(lane)] < caps.lo[lane] ||
                shadow[static_cast<std::size_t>(lane)] > caps.hi[lane])
              violated = true;
          }
        }
        const std::int64_t t_len = k1 - k0;
        extract_lanes(acc, l, phys);
        if (violated) {
          ++st.overflow_tiles;
          VITBIT_CHECK_MSG(options.tile.mode == TileMode::kFixedPeriod,
                           "adaptive tiles must never violate lane bounds");
          if (options.fallback_on_overflow) phys = shadow;
        }
        ++st.total_tiles;
        ++st.spill_events;
        st.mac_instructions += t_len;
        lane_corrections(l, scalar_sum, t_len, corr);
        for (int lane = 0; lane < lanes; ++lane) {
          const auto i = static_cast<std::size_t>(lane);
          std::int64_t value = phys[i] - corr[i];
          if (l.mode == LaneMode::kOffset) {
            std::int64_t lane_val_sum = 0;
            for (int k = k0; k < k1; ++k) lane_val_sum += b.value(k, pc, lane);
            value -= za * lane_val_sum;
          }
          totals[i] += value;
        }
        k0 = k1;
      }
      for (int lane = 0; lane < lanes; ++lane) {
        const int col = pc * lanes + lane;
        if (col < c.cols())
          store_output(totals[static_cast<std::size_t>(lane)], m, col, c);
      }
    }
  }
  return c;
}

// Every other engine: tile-major, one output row at a time, with the
// exact lane shadow as the arithmetic. Each packed word is
// sum_lane encoded_lane * 2^(lane * field_bits) mod 2^32, so the packed
// IMAD's wrapping accumulator is sum_lane shadow_lane * 2^(lane *
// field_bits) mod 2^32, and where no prefix of a tile leaves its caps,
// extract_lanes of it returns exactly the shadow's sums; the MAC is never
// run. A row whose whole-row bound, sum |encoded scalar| * max |encoded
// lane value| <= INT32_MAX, proves int32 exact runs all of its tiles in
// one swar_lane_shadow_row pass over the row of (packed column x lane)
// values; if no column is violated, its outputs are the row sums less one
// correction per lane. Any other row goes tile by tile. The corrections
// are linear in a tile's scalar sum and length, so over a row they add up
// to one lane_corrections(row scalar sum, K), and kOffset's lane-value
// term to za * (column encoded sum - z * K), taken once per call. Same
// arithmetic and checks as gemm_packed_ref in a different loop order, so
// the output, every stats field and every throw match it.
MatrixI32 gemm_packed_tiled(const MatrixI32& a, const PackedMatrix& b,
                            const PackedGemmOptions& options,
                            PackedGemmStats& st) {
  const LaneLayout& l = b.layout();
  const int lanes = l.num_lanes;
  const auto pcs = static_cast<std::size_t>(b.packed_cols());
  const auto k_dim = static_cast<std::size_t>(a.cols());
  const std::int64_t z = l.zero_point();
  const std::int64_t za = l.scalar_zero_point();
  MatrixI32 c(a.rows(), b.orig_cols());

  // The encoded lane operand, decoded once per call. Columns are
  // lane-major, j = lane * pcs + pc (padding lanes included — the oracle
  // checks them too), in kPanel-column panels of k_dim steps each.
  const std::size_t cols = pcs * lanes;
  const std::size_t width = round_up(cols, kPanel);
  const std::size_t panel_stride = k_dim * kPanel;
  std::vector<std::int32_t> lane_panels(width / kPanel * panel_stride, 0);
  // Each column's encoded sum over K, made below into kOffset's
  // lane-value term (za is 0 in the other modes).
  std::vector<std::int64_t> value_term(cols, 0);
  std::int64_t max_lane = 0;
  for (std::size_t k = 0; k < k_dim; ++k) {
    const auto words = b.word_row(static_cast<int>(k));
    for (int lane = 0; lane < lanes; ++lane) {
      for (std::size_t pc = 0, j = lane * pcs; pc < pcs; ++pc, ++j) {
        const std::int32_t e = encoded_lane(words[pc], lane, l);
        lane_panels[j / kPanel * panel_stride + k * kPanel + j % kPanel] = e;
        value_term[j] += e;
        max_lane = std::max<std::int64_t>(max_lane, std::abs(e));
      }
    }
  }
  for (auto& v : value_term)
    v = za * (v - z * static_cast<std::int64_t>(k_dim));
  // Per-column caps; the int32 copies are clamped, which is exact for
  // tiles whose every prefix provably fits int32.
  const LaneCaps caps = lane_caps(l);
  const auto clamp32 = [](std::int64_t v) {
    return static_cast<std::int32_t>(
        std::clamp<std::int64_t>(v, INT32_MIN, INT32_MAX));
  };
  std::vector<std::int32_t> lo32(width, 0), hi32(width, 0);
  for (int lane = 0; lane < lanes; ++lane) {
    std::fill_n(lo32.begin() + lane * pcs, pcs, clamp32(caps.lo[lane]));
    std::fill_n(hi32.begin() + lane * pcs, pcs, clamp32(caps.hi[lane]));
  }

  std::vector<std::int32_t> enc_a(k_dim), sum32(width), violated(width);
  std::vector<std::int64_t> sum64(cols), row_totals(cols);
  LaneSums phys{}, corr{};
  // One row tile by tile: row_totals gets each tile's physical lane sums,
  // and violations are counted and checked as gemm_packed_ref does. A
  // tile whose own bound proves int32 exact runs swar_lane_shadow_row
  // with a one-tile list, any other tile an int64 loop. A violated packed
  // column without fallback keeps the wrapped accumulator, rebuilt from
  // the column's exact lane sums and extracted.
  const auto row_by_tile = [&](std::span<const std::int32_t> raw_row,
                               const std::vector<int>& bounds) {
    std::fill(row_totals.begin(), row_totals.end(), 0);
    std::size_t k0 = 0;
    for (const int bound : bounds) {
      const auto k1 = static_cast<std::size_t>(bound);
      std::int64_t weight = 0;
      for (std::size_t k = k0; k < k1; ++k)
        weight += l.scalar_tile_weight(raw_row[k]);
      const std::span<const std::int32_t> scalars(enc_a.data() + k0, k1 - k0);
      const auto tile_panels =
          std::span<const std::int32_t>(lane_panels).subspan(k0 * kPanel);
      if (weight * max_lane <= INT32_MAX) {
        const int one_tile[] = {static_cast<int>(k1 - k0)};
        swar_lane_shadow_row(scalars, one_tile, tile_panels, panel_stride, lo32,
                             hi32, sum32, violated);
        std::copy_n(sum32.begin(), cols, sum64.begin());
      } else {
        for (std::size_t j = 0; j < cols; ++j) {
          const std::size_t lane = j / pcs;
          const std::int32_t* col =
              &tile_panels[j / kPanel * panel_stride + j % kPanel];
          std::int64_t sum = 0;
          bool bad = false;
          for (const std::int32_t e : scalars) {
            sum += std::int64_t{e} * *col;
            bad |= sum < caps.lo[lane] || sum > caps.hi[lane];
            col += kPanel;
          }
          sum64[j] = sum;
          violated[j] = bad ? -1 : 0;
        }
      }
      for (std::size_t pc = 0; pc < pcs; ++pc) {
        bool bad = false;
        for (int lane = 0; lane < lanes; ++lane)
          bad |= violated[lane * pcs + pc] != 0;
        if (!bad) continue;
        ++st.overflow_tiles;
        VITBIT_CHECK_MSG(options.tile.mode == TileMode::kFixedPeriod,
                         "adaptive tiles must never violate lane bounds");
        if (options.fallback_on_overflow) continue;  // keep the exact sums
        std::uint32_t acc = 0;
        for (int lane = 0; lane < lanes; ++lane) {
          const auto sum = static_cast<std::uint32_t>(sum64[lane * pcs + pc]);
          acc += sum << (lane * l.field_bits);
        }
        extract_lanes(acc, l, phys);
        for (int lane = 0; lane < lanes; ++lane)
          sum64[lane * pcs + pc] = phys[static_cast<std::size_t>(lane)];
      }
      for (std::size_t j = 0; j < cols; ++j) row_totals[j] += sum64[j];
      k0 = k1;
    }
  };
  for (int m = 0; m < a.rows(); ++m) {
    const auto raw_row = a.row(m);
    const auto bounds = tile_boundaries(raw_row, l, options.tile);
    st.mean_tile_length += mean_tile_length(bounds);
    if (pcs == 0) continue;  // the oracle encodes no scalar without columns
    const auto tiles = static_cast<std::int64_t>(bounds.size());
    st.total_tiles += tiles * static_cast<std::int64_t>(pcs);
    st.spill_events += tiles * static_cast<std::int64_t>(pcs);
    st.mac_instructions += static_cast<std::int64_t>(k_dim * pcs);
    std::int64_t scalar_sum = 0, weight = 0;
    for (std::size_t k = 0; k < k_dim; ++k) {
      enc_a[k] = static_cast<std::int32_t>(encode_scalar(raw_row[k], l));
      scalar_sum += raw_row[k];
      weight += l.scalar_tile_weight(raw_row[k]);
    }
    bool one_pass = weight * max_lane <= INT32_MAX;
    if (one_pass) {
      swar_lane_shadow_row(enc_a, bounds, lane_panels, panel_stride, lo32, hi32,
                           sum32, violated);
      one_pass = std::none_of(violated.begin(), violated.begin() + cols,
                              [](std::int32_t v) { return v != 0; });
      std::copy_n(sum32.begin(), cols, row_totals.begin());
    }
    if (!one_pass) row_by_tile(raw_row, bounds);
    lane_corrections(l, scalar_sum, static_cast<std::int64_t>(k_dim), corr);
    for (int col = 0; col < c.cols(); ++col) {
      const auto lane = static_cast<std::size_t>(col % lanes);
      const std::size_t j = lane * pcs + static_cast<std::size_t>(col / lanes);
      store_output(row_totals[j] - corr[lane] - value_term[j], m, col, c);
    }
  }
  return c;
}

}  // namespace

MatrixI32 gemm_packed(const MatrixI32& a, const PackedMatrix& b,
                      const PackedGemmOptions& options,
                      PackedGemmStats* stats) {
  const LaneLayout& l = b.layout();
  VITBIT_CHECK(l.valid());
  VITBIT_CHECK_MSG(a.cols() == b.rows(), "GEMM shape mismatch: A is "
                                             << a.rows() << "x" << a.cols()
                                             << ", packed B has " << b.rows()
                                             << " rows");
  VITBIT_CHECK(l.num_lanes <= kMaxLanes);

  // mean_tile_length accumulates the per-row means, averaged below.
  PackedGemmStats local{};
  MatrixI32 c = default_gemm_engine() == GemmEngine::kRef
                    ? gemm_packed_ref(a, b, options, local)
                    : gemm_packed_tiled(a, b, options, local);
  if (a.rows() > 0) local.mean_tile_length /= a.rows();
  if (stats) *stats = local;
  return c;
}

MatrixI32 gemm_packed(const MatrixI32& a, const MatrixI32& b,
                      const LaneLayout& layout,
                      const PackedGemmOptions& options,
                      PackedGemmStats* stats) {
  check_values_fit(b, layout);
  return gemm_packed(a, PackedMatrix(b, layout), options, stats);
}

}  // namespace vitbit::swar
