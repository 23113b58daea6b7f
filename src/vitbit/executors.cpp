#include "vitbit/executors.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "swar/packed_gemm.h"
#include "tensor/gemm_dispatch.h"
#include "vitbit/preprocess.h"

namespace vitbit::core {

namespace {

// Smallest and largest of a set of values; empty (lo > hi) until one is
// added.
struct ValueRange {
  std::int32_t lo = INT32_MAX;
  std::int32_t hi = INT32_MIN;

  void add(std::span<const std::int32_t> values) {
    for (const std::int32_t v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  // max|v|, 0 for the empty set.
  double abs_max() const {
    if (lo > hi) return 0.0;
    return std::max(std::abs(static_cast<double>(lo)),
                    std::abs(static_cast<double>(hi)));
  }
};

// The one pass over each operand: A's range, B's range and the range of
// B's columns [fp_c0, fp_c1), the FP units' share.
struct OperandRanges {
  ValueRange a, b, b_fp;
};

OperandRanges scan_operands(const MatrixI32& a, const MatrixI32& b, int fp_c0,
                            int fp_c1) {
  const auto c0 = static_cast<std::size_t>(fp_c0);
  const auto c1 = static_cast<std::size_t>(fp_c1);
  OperandRanges r;
  r.a.add(a.flat());
  for (int k = 0; k < b.rows(); ++k) {
    const auto row = b.row(k);
    r.b.add(row.first(c0));
    r.b_fp.add(row.subspan(c0, c1 - c0));
    r.b.add(row.subspan(c1));
  }
  r.b.lo = std::min(r.b.lo, r.b_fp.lo);
  r.b.hi = std::max(r.b.hi, r.b_fp.hi);
  return r;
}

// The FP units' condition (fused_gemm.h): every fp32 partial sum is an
// integer below 2^24 in magnitude, so the float product is the integer
// one.
void check_fp_exact(const char* path, const ValueRange& a, const ValueRange& b,
                    int k) {
  const double max_a = a.abs_max(), max_b = b.abs_max();
  VITBIT_CHECK_MSG(max_a * max_b * k < 16777216.0,
                   path << " would exceed exact fp32 integer range: K=" << k
                        << " max|a|=" << max_a << " max|b|=" << max_b);
}

// FC: the FP units over all of A and B.
MatrixI32 fc_gemm(const MatrixI32& a, const MatrixI32& b) {
  const OperandRanges r = scan_operands(a, b, 0, b.cols());
  check_fp_exact("FC path", r.a, r.b_fp, a.cols());
  return gemm_int(a, b);
}

// A fused execution with an arbitrary Tensor/CUDA split. m_ratio < 0 means
// "no tensor-core slice" (pure CUDA methods); use_packing selects packed
// vs plain INT for the B1 slice; use_fp enables the B2 slice. Column
// ranges follow Algorithm 1 (split_widths): INT [0, n1), FP [n1, n1+n2),
// TC [n1+n2, N).
MatrixI32 split_gemm(const MatrixI32& a, const MatrixI32& b, int m_ratio,
                     bool use_packing, bool use_fp, int bitwidth) {
  // Packed B1 uses the Fig. 3 policy layout for the value bitwidth;
  // unpacked B1 is plain zero-masking (the >= 9-bit single-lane layout).
  // Equation 1: with packing the INT slice takes n of every n+1 CUDA
  // columns (n = packing factor); unpacked splits 1:1.
  const int bits = use_packing ? bitwidth : std::max(bitwidth, 9);
  const SplitWidths w = split_widths(b.cols(), std::max(m_ratio, 0),
                                     swar::packing_factor(bits), use_fp);
  const OperandRanges r = scan_operands(a, b, w.n1, w.n1 + w.n2);
  // When both operands are non-negative — the attention-probability GEMM
  // of every transformer layer — unsigned lanes apply: no offset encoding,
  // larger accumulation budgets, longer tiles.
  const bool non_negative = r.a.lo >= 0 && r.b.lo >= 0;
  const auto mode =
      non_negative ? swar::LaneMode::kUnsigned : swar::LaneMode::kTopSigned;
  const auto layout = swar::paper_policy_layout(bits, mode);

  // Every column of B must fit the INT slice's layout, and with INT
  // columns present A's values are its scalars.
  const std::int32_t b_out = r.b.lo < layout.value_min() ? r.b.lo : r.b.hi;
  VITBIT_CHECK_MSG(r.b.lo >= layout.value_min() && r.b.hi <= layout.value_max(),
                   "matrix value " << b_out << " does not fit layout "
                                   << layout.to_string());
  if (w.n1 > 0) {
    const std::int32_t a_out = r.a.lo < layout.scalar_min() ? r.a.lo : r.a.hi;
    VITBIT_CHECK_MSG(
        r.a.lo >= layout.scalar_min() && r.a.hi <= layout.scalar_max(),
        "scalar " << a_out << " out of range for " << layout.to_string());
  }
  if (w.n2 > 0) check_fp_exact("FP slice", r.a, r.b_fp, a.cols());

  // Under these conditions the one-lane INT slice, the FP slice and the
  // TC slice all compute the exact integer MAC: one gemm_int covers them.
  if (!use_packing || w.n1 == 0) return gemm_int(a, b);

  // VitBit: the packed SWAR GEMM on its INT columns, one gemm_int on the
  // FP and TC columns.
  const swar::PackedMatrix b_int(b, 0, w.n1, layout);
  const MatrixI32 c_int = swar::gemm_packed(a, b_int);
  const MatrixI32 c_rest = gemm_int(a, slice_cols(b, w.n1, b.cols()));
  MatrixI32 c(a.rows(), b.cols());
  for (int row = 0; row < c.rows(); ++row) {
    const auto out = c.row(row);
    std::ranges::copy(c_int.row(row), out.begin());
    std::ranges::copy(c_rest.row(row), out.begin() + w.n1);
  }
  return c;
}

}  // namespace

nn::GemmFn make_gemm_executor(Strategy strategy, const ExecutorConfig& cfg) {
  switch (strategy) {
    case Strategy::kTC:
    case Strategy::kIC:
      // Plain integer MACs (tensor-core IMMA and CUDA-core IMAD compute the
      // same zero-masked integer arithmetic).
      return [](const MatrixI32& a, const MatrixI32& b) {
        return gemm_int(a, b);
      };
    case Strategy::kFC:
      return fc_gemm;
    case Strategy::kICFC:
      return [cfg](const MatrixI32& a, const MatrixI32& b) {
        return split_gemm(a, b, /*m_ratio=*/0, /*use_packing=*/false,
                          /*use_fp=*/true, cfg.bitwidth);
      };
    case Strategy::kTacker:
      return [cfg](const MatrixI32& a, const MatrixI32& b) {
        return split_gemm(a, b, cfg.m_ratio, /*use_packing=*/false,
                          /*use_fp=*/false, cfg.bitwidth);
      };
    case Strategy::kTCICFC:
      return [cfg](const MatrixI32& a, const MatrixI32& b) {
        return split_gemm(a, b, cfg.m_ratio, /*use_packing=*/false,
                          /*use_fp=*/true, cfg.bitwidth);
      };
    case Strategy::kVitBit:
      return [cfg](const MatrixI32& a, const MatrixI32& b) {
        return split_gemm(a, b, cfg.m_ratio, /*use_packing=*/true,
                          /*use_fp=*/true, cfg.bitwidth);
      };
  }
  VITBIT_CHECK_MSG(false, "unknown strategy");
  return {};
}

}  // namespace vitbit::core
