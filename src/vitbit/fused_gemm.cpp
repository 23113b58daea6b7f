#include "vitbit/fused_gemm.h"

#include <cmath>

#include "common/check.h"
#include "tensor/gemm_dispatch.h"

namespace vitbit::core {

MatrixI32 vitbit_gemm(const PreprocessedWeights& weights,
                      const PreprocessedInput& input,
                      const swar::PackedGemmOptions& packed_options,
                      FusedGemmStats* stats) {
  const MatrixI32& a1 = weights.a1;
  const int m = a1.rows();
  const int k = a1.cols();
  const int n1 = input.widths.n1, n2 = input.widths.n2, n3 = input.widths.n3;
  VITBIT_CHECK(input.b1.rows() == k || n1 == 0);
  VITBIT_CHECK(input.b2.rows() == k || n2 == 0);
  VITBIT_CHECK(input.b3.rows() == k || n3 == 0);
  VITBIT_CHECK(weights.a2.rows() == m && weights.a2.cols() == k);

  MatrixI32 c(m, n1 + n2 + n3);
  FusedGemmStats local{};

  // INT-core slice: packed SWAR GEMM (warp role: INT_GEMM(A1, B1)).
  if (n1 > 0) {
    const MatrixI32 c1 =
        swar::gemm_packed(a1, input.b1, packed_options, &local.packed);
    for (int r = 0; r < m; ++r)
      for (int col = 0; col < n1; ++col) c.at(r, col) = c1.at(r, col);
  }

  // FP-core slice: float GEMM on converted operands (FP_GEMM(A2, B2)),
  // exact as long as partial sums stay below 2^24.
  if (n2 > 0) {
    double max_a = 0, max_b = 0;
    for (const auto v : weights.a2.flat())
      max_a = std::max(max_a, std::abs(static_cast<double>(v)));
    for (const auto v : input.b2.flat())
      max_b = std::max(max_b, std::abs(static_cast<double>(v)));
    VITBIT_CHECK_MSG(max_a * max_b * k < 16777216.0,
                     "FP slice would exceed exact fp32 integer range: K="
                         << k << " max|a|=" << max_a << " max|b|=" << max_b);
    // Dispatched float GEMM; exact under the bound just checked, so it
    // yields the same integers the FFMA accumulation chain would.
    const MatrixF32 c2 = gemm_f32(weights.a2, input.b2);
    for (int r = 0; r < m; ++r) {
      for (int col = 0; col < n2; ++col) {
        const auto v =
            static_cast<std::int64_t>(std::llround(c2.at(r, col)));
        VITBIT_CHECK(v >= INT32_MIN && v <= INT32_MAX);
        c.at(r, n1 + col) = static_cast<std::int32_t>(v);
        local.fp_macs += k;
      }
    }
  }

  // Tensor-core slice: zero-masked integer MMA (TC_GEMM(A1, B3)).
  if (n3 > 0) {
    const MatrixI32 c3 = gemm_int(a1, input.b3);
    for (int r = 0; r < m; ++r)
      for (int col = 0; col < n3; ++col) c.at(r, n1 + n2 + col) = c3.at(r, col);
    local.tensor_macs = static_cast<std::int64_t>(m) * k * n3;
  }

  if (stats) *stats = local;
  return c;
}

}  // namespace vitbit::core
