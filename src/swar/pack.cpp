#include "swar/pack.h"

#include "swar/packed_span.h"

namespace vitbit::swar {

namespace {
// Encoded (physical) lane bits for a logical value in lane `lane`.
std::uint32_t encode_lane(std::int32_t v, int lane, const LaneLayout& l) {
  VITBIT_CHECK_MSG(v >= l.value_min() && v <= l.value_max(),
                   "value " << v << " out of range for layout "
                            << l.to_string());
  const bool top = lane == l.num_lanes - 1;
  std::int64_t enc;
  switch (l.mode) {
    case LaneMode::kUnsigned:
      enc = v;
      break;
    case LaneMode::kOffset:
      enc = static_cast<std::int64_t>(v) + l.zero_point();
      break;
    case LaneMode::kTopSigned:
      if (top) {
        // Raw two's complement in the top field.
        const int tf = l.top_field_bits();
        return static_cast<std::uint32_t>(static_cast<std::uint32_t>(v) &
                                          low_mask32(tf));
      }
      enc = static_cast<std::int64_t>(v) + l.zero_point();
      break;
    default:
      enc = v;
  }
  VITBIT_DCHECK(enc >= 0);
  const int width = top ? l.top_field_bits() : l.field_bits;
  VITBIT_DCHECK(enc <= unsigned_max(width));
  (void)width;
  return static_cast<std::uint32_t>(enc);
}

std::int32_t decode_lane(std::uint32_t bits, int lane, const LaneLayout& l) {
  const bool top = lane == l.num_lanes - 1;
  const int width = top ? l.top_field_bits() : l.field_bits;
  const std::uint32_t field = bits & low_mask32(width);
  switch (l.mode) {
    case LaneMode::kUnsigned:
      return static_cast<std::int32_t>(field);
    case LaneMode::kOffset:
      return static_cast<std::int32_t>(static_cast<std::int64_t>(field) -
                                       l.zero_point());
    case LaneMode::kTopSigned:
      if (top) return static_cast<std::int32_t>(sign_extend(field, width));
      return static_cast<std::int32_t>(static_cast<std::int64_t>(field) -
                                       l.zero_point());
  }
  return 0;
}
}  // namespace

std::uint32_t pack_lanes(std::span<const std::int32_t> values,
                         const LaneLayout& layout) {
  VITBIT_CHECK(static_cast<int>(values.size()) == layout.num_lanes);
  std::uint32_t word = 0;
  for (int lane = 0; lane < layout.num_lanes; ++lane)
    word |= encode_lane(values[lane], lane, layout)
            << (lane * layout.field_bits);
  return word;
}

void unpack_lanes(std::uint32_t word, const LaneLayout& layout,
                  std::span<std::int32_t> out) {
  VITBIT_CHECK(static_cast<int>(out.size()) == layout.num_lanes);
  for (int lane = 0; lane < layout.num_lanes; ++lane)
    out[lane] = decode_lane(word >> (lane * layout.field_bits), lane, layout);
}

PackedMatrix::PackedMatrix(const MatrixI32& b, const LaneLayout& layout)
    : PackedMatrix(b, 0, b.cols(), layout) {}

PackedMatrix::PackedMatrix(const MatrixI32& b, int c0, int c1,
                           const LaneLayout& layout)
    : layout_(layout) {
  VITBIT_CHECK(0 <= c0 && c0 <= c1 && c1 <= b.cols());
  VITBIT_CHECK(layout.valid());
  orig_cols_ = c1 - c0;
  const int pc_count = ceil_div(orig_cols_, layout.num_lanes);
  words_ = Matrix<std::uint32_t>(b.rows(), pc_count);
  // Row-at-a-time through the span layer: vectorized on AVX2 machines,
  // identical per-word pack_lanes encoding otherwise.
  const auto first = static_cast<std::size_t>(c0);
  const auto count = static_cast<std::size_t>(orig_cols_);
  for (int k = 0; k < b.rows(); ++k)
    pack_span(b.row(k).subspan(first, count), layout, words_.row(k));
}

std::int32_t PackedMatrix::value(int k, int pc, int lane) const {
  VITBIT_DCHECK(lane >= 0 && lane < layout_.num_lanes);
  return decode_lane(words_.at(k, pc) >> (lane * layout_.field_bits), lane,
                     layout_);
}

MatrixI32 PackedMatrix::unpack() const {
  MatrixI32 out(rows(), orig_cols_);
  for (int k = 0; k < rows(); ++k)
    unpack_span(words_.row(k), layout_, out.row(k));
  return out;
}

void check_values_fit(const MatrixI32& m, const LaneLayout& layout) {
  for (const auto v : m.flat())
    VITBIT_CHECK_MSG(v >= layout.value_min() && v <= layout.value_max(),
                     "matrix value " << v << " does not fit layout "
                                     << layout.to_string());
}

}  // namespace vitbit::swar
