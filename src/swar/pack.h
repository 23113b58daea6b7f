// Packing and unpacking of lane values into 32-bit register words
// (paper Section 3.2, Algorithm 1 lines 19-30).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "swar/layout.h"
#include "tensor/matrix.h"

namespace vitbit::swar {

// Encodes `layout.num_lanes` values (lane 0 first) into one register word.
// Values must lie in [layout.value_min(), layout.value_max()].
std::uint32_t pack_lanes(std::span<const std::int32_t> values,
                         const LaneLayout& layout);

// Decodes a register word back into lane values.
void unpack_lanes(std::uint32_t word, const LaneLayout& layout,
                  std::span<std::int32_t> out);

// A matrix whose columns are packed in groups of `layout.num_lanes`:
// word(k, pc) holds columns [pc*L, pc*L+L) of row k. Columns beyond the
// original width are padded with zero values.
//
// This is the output of VitBit preprocessing for the B1 (INT-core) slice.
class PackedMatrix {
 public:
  PackedMatrix() = default;
  PackedMatrix(const MatrixI32& b, const LaneLayout& layout);
  // Packs columns [c0, c1) of `b` straight from its rows: the same words
  // as PackedMatrix(slice_cols(b, c0, c1), layout), without the copy.
  PackedMatrix(const MatrixI32& b, int c0, int c1, const LaneLayout& layout);

  const LaneLayout& layout() const { return layout_; }
  int rows() const { return words_.rows(); }          // K
  int packed_cols() const { return words_.cols(); }   // ceil(N / L)
  int orig_cols() const { return orig_cols_; }        // N

  std::uint32_t word(int k, int pc) const { return words_.at(k, pc); }

  // All packed columns of row k as one contiguous span — the operand shape
  // the span kernels (swar/packed_span.h) consume.
  std::span<const std::uint32_t> word_row(int k) const {
    return words_.row(k);
  }

  // Decodes lane `lane` of packed column `pc` at row `k`.
  std::int32_t value(int k, int pc, int lane) const;

  // Reconstructs the original (unpacked) matrix.
  MatrixI32 unpack() const;

 private:
  LaneLayout layout_;
  int orig_cols_ = 0;
  Matrix<std::uint32_t> words_;
};

// Convenience: validates that every element of `m` fits the layout's value
// range; throws CheckError otherwise.
void check_values_fit(const MatrixI32& m, const LaneLayout& layout);

}  // namespace vitbit::swar
