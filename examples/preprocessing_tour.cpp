// Walks through VitBit's Algorithm 1 preprocessing step by step: the
// B -> B1/B2/B3 column split, packing, weight duplication — then executes
// Algorithm 2 functionally and verifies the fused result.
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "tensor/gemm_ref.h"
#include "vitbit/executors.h"
#include "vitbit/fused_gemm.h"

namespace {

int run(int argc, char** argv) {
  using namespace vitbit;
  const Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("n", 96));
  const int m_ratio = static_cast<int>(cli.get_int("m", 4));
  const int pack = 2;  // INT8 policy: n of Equation 1

  Rng rng(3);
  MatrixI32 a(32, 128), b(128, n);
  fill_gaussian_clipped(a, rng, 14.0, -127, 127);
  fill_uniform(b, rng, -128, 127);

  // Step 1: duplicate the weights (INT + FP forms) — one-time setup.
  const auto weights = core::weight_preprocessing(a);
  std::cout << "Step 1: weights duplicated: A1 int32[" << weights.a1.rows()
            << "x" << weights.a1.cols() << "], A2 float[" << weights.a2.rows()
            << "x" << weights.a2.cols() << "]\n";

  // Steps 2-4: split the input by Algorithm 1 and encode each slice.
  const auto layout = swar::paper_policy_layout(8, swar::LaneMode::kTopSigned);
  const auto input = core::input_preprocessing(b, m_ratio, pack, layout);
  Table t("Step 2-4: Algorithm 1 split of B (" + std::to_string(n) +
          " columns, m=" + std::to_string(m_ratio) + ", n=" +
          std::to_string(pack) + ")");
  t.header({"slice", "columns", "encoding", "consumer"});
  t.row()
      .cell("B1")
      .cell(std::int64_t{input.widths.n1})
      .cell("packed, " + std::to_string(layout.num_lanes) + "/register")
      .cell("INT CUDA cores");
  t.row()
      .cell("B2")
      .cell(std::int64_t{input.widths.n2})
      .cell("float (static_cast)")
      .cell("FP CUDA cores");
  t.row()
      .cell("B3")
      .cell(std::int64_t{input.widths.n3})
      .cell("zero-masked INT")
      .cell("Tensor cores");
  t.print(std::cout);

  // Algorithm 2: fused execution, one slice per unit class.
  core::FusedGemmStats stats;
  const auto c = core::vitbit_gemm(weights, input, {}, &stats);
  const auto ref = gemm_ref_int(a, b);
  std::cout << "\nAlgorithm 2 fused GEMM:\n"
            << "  tensor-core MACs: " << stats.tensor_macs << "\n"
            << "  FP-core MACs:     " << stats.fp_macs
            << " (fp32 on integers — exact below 2^24)\n"
            << "  packed INT MACs:  " << stats.packed.mac_instructions
            << " instructions for "
            << std::int64_t{input.widths.n1} * a.rows() * a.cols() << " MACs\n"
            << "  result vs plain integer GEMM: "
            << (max_abs_diff(c, ref) == 0 ? "bit-identical" : "DIFFERS")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, run);
}
