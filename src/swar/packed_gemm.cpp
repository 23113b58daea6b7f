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

// Adds each accumulator's lane sums, less `corr`, to `totals`, which is
// lane-major: lane `lane` of packed column pc at lane * acc.size() + pc.
// The same extraction as extract_lanes, one lane at a time across the
// whole row of accumulators so the compiler vectorizes it; `high` is
// scratch of acc.size() words. In int32 the top-signed carry step
// (x - s) >> f is (x >> f) + (s < 0), which cannot overflow.
void add_lane_sums(std::span<const std::uint32_t> acc, const LaneLayout& l,
                   const LaneSums& corr, std::span<std::uint32_t> high,
                   std::int64_t* totals) {
  const std::size_t n = acc.size();
  const int f = l.field_bits;
  const int top = l.num_lanes - 1;
  std::copy(acc.begin(), acc.end(), high.begin());
  for (int lane = 0; lane < top; ++lane, totals += n) {
    const std::int64_t c = corr[static_cast<std::size_t>(lane)];
    if (l.mode == LaneMode::kTopSigned) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto x = static_cast<std::int32_t>(high[i]);
        const std::int32_t s =
            static_cast<std::int32_t>(high[i] << (32 - f)) >> (32 - f);
        totals[i] += s - c;
        high[i] = static_cast<std::uint32_t>((x >> f) + (s < 0));
      }
    } else {
      const std::uint32_t mask = low_mask32(f);
      for (std::size_t i = 0; i < n; ++i) {
        totals[i] += static_cast<std::int64_t>(high[i] & mask) - c;
        high[i] >>= f;
      }
    }
  }
  const std::int64_t c = corr[static_cast<std::size_t>(top)];
  if (l.mode == LaneMode::kTopSigned) {
    for (std::size_t i = 0; i < n; ++i)
      totals[i] += static_cast<std::int32_t>(high[i]) - c;
  } else {
    for (std::size_t i = 0; i < n; ++i) totals[i] += high[i] - c;
  }
}

// Every other engine: tile-major. Per row and accumulation tile, the
// wrapping MAC runs across the whole row of packed columns
// (swar_mac_span) and, beside it, an exact shadow of every lane's
// physical prefix sum over the same k range runs across the row of
// (packed column x lane) values (swar_lane_shadow_span; int64 for tiles
// whose bound does not prove int32 exact). Same arithmetic and checks as
// gemm_packed_ref in a different loop order, so the output, every stats
// field and every throw match it.
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
  std::int64_t max_lane = 0;
  for (std::size_t k = 0; k < k_dim; ++k) {
    const auto words = b.word_row(static_cast<int>(k));
    for (int lane = 0; lane < lanes; ++lane) {
      for (std::size_t pc = 0, j = lane * pcs; pc < pcs; ++pc, ++j) {
        const std::int32_t e = encoded_lane(words[pc], lane, l);
        lane_panels[j / kPanel * panel_stride + k * kPanel + j % kPanel] = e;
        max_lane = std::max<std::int64_t>(max_lane, std::abs(e));
      }
    }
  }
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

  std::vector<std::int32_t> enc_a(k_dim);
  std::vector<std::int64_t> scalar_prefix(k_dim + 1, 0);
  std::vector<std::int64_t> weight_prefix(k_dim + 1, 0);  // sum |enc_a|
  std::vector<std::uint32_t> acc_row(pcs), high(pcs);
  std::vector<std::int32_t> sum32(width), violated(width);
  std::vector<std::int64_t> sum64(width), row_totals(cols);
  LaneSums phys{}, corr{};
  for (int m = 0; m < a.rows(); ++m) {
    const auto bounds = tile_boundaries(a.row(m), l, options.tile);
    st.mean_tile_length += mean_tile_length(bounds);
    if (pcs == 0) continue;  // the oracle encodes no scalar without columns
    for (std::size_t k = 0; k < k_dim; ++k) {
      const std::int32_t raw_a = a.row(m)[k];
      enc_a[k] = static_cast<std::int32_t>(encode_scalar(raw_a, l));
      scalar_prefix[k + 1] = scalar_prefix[k] + raw_a;
      weight_prefix[k + 1] = weight_prefix[k] + l.scalar_tile_weight(raw_a);
    }
    std::fill(row_totals.begin(), row_totals.end(), 0);
    std::size_t k0 = 0;
    for (const int bound : bounds) {
      const auto k1 = static_cast<std::size_t>(bound);
      const auto t_len = static_cast<std::int64_t>(k1 - k0);
      std::fill(acc_row.begin(), acc_row.end(), 0);
      for (std::size_t k = k0; k < k1; ++k)
        swar_mac_span(acc_row, static_cast<std::uint32_t>(enc_a[k]),
                      b.word_row(static_cast<int>(k)));

      const std::span<const std::int32_t> scalars(enc_a.data() + k0, k1 - k0);
      const auto tile_panels =
          std::span<const std::int32_t>(lane_panels).subspan(k0 * kPanel);
      const bool exact32 =
          (weight_prefix[k1] - weight_prefix[k0]) * max_lane <= INT32_MAX;
      if (exact32) {
        swar_lane_shadow_span(scalars, tile_panels, panel_stride, lo32, hi32,
                              sum32, violated);
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

      st.total_tiles += static_cast<std::int64_t>(pcs);
      st.spill_events += static_cast<std::int64_t>(pcs);
      st.mac_instructions += t_len * static_cast<std::int64_t>(pcs);
      lane_corrections(l, scalar_prefix[k1] - scalar_prefix[k0], t_len, corr);
      add_lane_sums(acc_row, l, corr, high, row_totals.data());
      std::int32_t any_violated = 0;
      for (std::size_t j = 0; j < cols; ++j) any_violated |= violated[j];
      for (std::size_t pc = 0; any_violated != 0 && pc < pcs; ++pc) {
        bool bad = false;
        for (int lane = 0; lane < lanes; ++lane)
          bad |= violated[lane * pcs + pc] != 0;
        if (!bad) continue;
        ++st.overflow_tiles;
        VITBIT_CHECK_MSG(options.tile.mode == TileMode::kFixedPeriod,
                         "adaptive tiles must never violate lane bounds");
        if (!options.fallback_on_overflow) continue;
        // Replace every lane's wrapped sum with its exact shadow.
        extract_lanes(acc_row[pc], l, phys);
        for (int lane = 0; lane < lanes; ++lane) {
          const std::size_t j = lane * pcs + pc;
          row_totals[j] += (exact32 ? sum32[j] : sum64[j]) -
                           phys[static_cast<std::size_t>(lane)];
        }
      }
      if (l.mode == LaneMode::kOffset) {
        // Lane value sum over the tile = encoded sum - z * t_len.
        for (std::size_t j = 0; j < cols; ++j) {
          const std::int32_t* col =
              &tile_panels[j / kPanel * panel_stride + j % kPanel];
          std::int64_t enc_sum = 0;
          for (std::int64_t s = 0; s < t_len; ++s, col += kPanel)
            enc_sum += *col;
          row_totals[j] -= za * (enc_sum - z * t_len);
        }
      }
      k0 = k1;
    }
    for (int col = 0; col < c.cols(); ++col) {
      const auto pc = static_cast<std::size_t>(col / lanes);
      const auto lane = static_cast<std::size_t>(col % lanes);
      store_output(row_totals[lane * pcs + pc], m, col, c);
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
