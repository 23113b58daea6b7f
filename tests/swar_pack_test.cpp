#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.h"
#include "swar/pack.h"

namespace vitbit::swar {
namespace {

std::vector<std::int32_t> random_values(Rng& rng, const LaneLayout& l) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(l.num_lanes));
  for (auto& x : v)
    x = static_cast<std::int32_t>(rng.range(l.value_min(), l.value_max()));
  return v;
}

TEST(PackLanes, KnownEncodingUnsigned8) {
  const auto l = paper_policy_layout(8, LaneMode::kUnsigned);
  const std::array<std::int32_t, 2> vals = {0x12, 0x34};
  EXPECT_EQ(pack_lanes(vals, l), 0x00340012u);
}

TEST(PackLanes, KnownEncodingTopSigned8) {
  const auto l = paper_policy_layout(8, LaneMode::kTopSigned);
  // Lane 0 offset by 128; lane 1 raw two's complement in the top 16 bits.
  const std::array<std::int32_t, 2> vals = {-1, -2};
  EXPECT_EQ(pack_lanes(vals, l), (0xFFFEu << 16) | (128 - 1));
}

TEST(PackLanes, ZeroPaddingSeparatesValues) {
  // The paper's zero-padding: a 4-bit value in an 8-bit field leaves the
  // upper nibble zero (unsigned mode).
  const auto l = paper_policy_layout(4, LaneMode::kUnsigned);
  const std::array<std::int32_t, 4> vals = {0xF, 0xF, 0xF, 0xF};
  EXPECT_EQ(pack_lanes(vals, l), 0x0F0F0F0Fu);
}

TEST(PackLanes, RejectsOutOfRangeValues) {
  const auto l = paper_policy_layout(8, LaneMode::kTopSigned);
  const std::array<std::int32_t, 2> too_big = {128, 0};
  EXPECT_THROW(pack_lanes(too_big, l), CheckError);
  const std::array<std::int32_t, 2> too_small = {0, -129};
  EXPECT_THROW(pack_lanes(too_small, l), CheckError);
}

TEST(PackLanes, RejectsWrongLaneCount) {
  const auto l = paper_policy_layout(8);
  const std::array<std::int32_t, 3> vals = {1, 2, 3};
  EXPECT_THROW(pack_lanes(vals, l), CheckError);
}

// Round-trip property over every bitwidth, mode, and the policy layout.
class PackRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, LaneMode>> {};

TEST_P(PackRoundTrip, PackUnpackIsIdentity) {
  const auto [bits, mode] = GetParam();
  const auto l = paper_policy_layout(bits, mode);
  Rng rng(1000 + bits * 7 + static_cast<int>(mode));
  std::vector<std::int32_t> out(static_cast<std::size_t>(l.num_lanes));
  for (int trial = 0; trial < 200; ++trial) {
    const auto vals = random_values(rng, l);
    unpack_lanes(pack_lanes(vals, l), l, out);
    EXPECT_EQ(vals, out) << l.to_string();
  }
}

TEST_P(PackRoundTrip, ExtremesRoundTrip) {
  const auto [bits, mode] = GetParam();
  const auto l = paper_policy_layout(bits, mode);
  std::vector<std::int32_t> out(static_cast<std::size_t>(l.num_lanes));
  for (const std::int64_t v : {l.value_min(), l.value_max(), std::int64_t{0}}) {
    std::vector<std::int32_t> vals(static_cast<std::size_t>(l.num_lanes),
                                   static_cast<std::int32_t>(v));
    unpack_lanes(pack_lanes(vals, l), l, out);
    EXPECT_EQ(vals, out) << l.to_string() << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBitwidthsAndModes, PackRoundTrip,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 12, 16),
                       ::testing::Values(LaneMode::kUnsigned, LaneMode::kOffset,
                                         LaneMode::kTopSigned)));

TEST(PackedMatrix, PacksColumnsInGroups) {
  const auto l = paper_policy_layout(8, LaneMode::kUnsigned);
  MatrixI32 b(2, 4);
  // Row 0: 1 2 3 4 ; row 1: 5 6 7 8
  int v = 1;
  for (auto& x : b.flat()) x = v++;
  const PackedMatrix p(b, l);
  EXPECT_EQ(p.rows(), 2);
  EXPECT_EQ(p.packed_cols(), 2);
  EXPECT_EQ(p.orig_cols(), 4);
  EXPECT_EQ(p.word(0, 0), (2u << 16) | 1u);
  EXPECT_EQ(p.word(1, 1), (8u << 16) | 7u);
}

TEST(PackedMatrix, PadsOddColumnCountWithZeros) {
  const auto l = paper_policy_layout(8, LaneMode::kTopSigned);
  MatrixI32 b(1, 3);
  b.at(0, 0) = 1;
  b.at(0, 1) = 2;
  b.at(0, 2) = 3;
  const PackedMatrix p(b, l);
  EXPECT_EQ(p.packed_cols(), 2);
  EXPECT_EQ(p.value(0, 1, 0), 3);
  EXPECT_EQ(p.value(0, 1, 1), 0) << "padding lane decodes to 0";
}

class PackedMatrixRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, LaneMode>> {};

TEST_P(PackedMatrixRoundTrip, UnpackRecoversOriginal) {
  const auto [bits, mode] = GetParam();
  const auto l = paper_policy_layout(bits, mode);
  Rng rng(7 + bits);
  MatrixI32 b(9, 13);  // deliberately not multiples of the lane count
  fill_uniform(b, rng, l.value_min(), l.value_max());
  const PackedMatrix p(b, l);
  EXPECT_EQ(p.unpack(), b) << l.to_string();
}

TEST_P(PackedMatrixRoundTrip, ColumnRangeMatchesPackedSlice) {
  const auto [bits, mode] = GetParam();
  const auto l = paper_policy_layout(bits, mode);
  Rng rng(17 + bits);
  MatrixI32 b(9, 13);
  fill_uniform(b, rng, l.value_min(), l.value_max());
  const int ranges[][2] = {{0, 13}, {1, 8}, {2, 13}, {0, 0}, {6, 6}, {13, 13}};
  for (const auto& [c0, c1] : ranges) {
    SCOPED_TRACE(::testing::Message() << "[" << c0 << ", " << c1 << ")");
    const PackedMatrix p(b, c0, c1, l);
    const PackedMatrix q(slice_cols(b, c0, c1), l);
    ASSERT_EQ(p.rows(), q.rows());
    ASSERT_EQ(p.packed_cols(), q.packed_cols());
    EXPECT_EQ(p.orig_cols(), q.orig_cols());
    EXPECT_EQ(p.layout(), q.layout());
    for (int k = 0; k < p.rows(); ++k)
      for (int pc = 0; pc < p.packed_cols(); ++pc)
        EXPECT_EQ(p.word(k, pc), q.word(k, pc)) << k << "," << pc;
  }
  EXPECT_THROW(PackedMatrix(b, 5, 4, l), CheckError);
  EXPECT_THROW(PackedMatrix(b, -1, 4, l), CheckError);
  EXPECT_THROW(PackedMatrix(b, 0, 14, l), CheckError);
}

INSTANTIATE_TEST_SUITE_P(
    AllBitwidthsAndModes, PackedMatrixRoundTrip,
    ::testing::Combine(::testing::Values(2, 4, 5, 6, 8, 9),
                       ::testing::Values(LaneMode::kUnsigned, LaneMode::kOffset,
                                         LaneMode::kTopSigned)));

TEST(CheckValuesFit, Throws) {
  const auto l = paper_policy_layout(4, LaneMode::kUnsigned);
  MatrixI32 b(1, 1);
  b.at(0, 0) = 16;
  EXPECT_THROW(check_values_fit(b, l), CheckError);
  b.at(0, 0) = 15;
  EXPECT_NO_THROW(check_values_fit(b, l));
}

}  // namespace
}  // namespace vitbit::swar
