// Explores the packing design space for an arbitrary integer bitwidth
// (the paper's headline: "efficient processing of arbitrary integer format
// values, especially those 8 bits or fewer").
//
//   ./bitwidth_explorer --bits=4 [--mode=top-signed|offset|unsigned]
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "swar/packed_gemm.h"
#include "tensor/gemm_ref.h"

namespace {

int run(int argc, char** argv) {
  using namespace vitbit;
  const Cli cli(argc, argv);
  const int bits = static_cast<int>(cli.get_int("bits", 4));
  const std::string mode_s = cli.get("mode", "top-signed");
  swar::LaneMode mode = swar::LaneMode::kTopSigned;
  if (mode_s == "offset") mode = swar::LaneMode::kOffset;
  if (mode_s == "unsigned") mode = swar::LaneMode::kUnsigned;

  const auto policy = swar::paper_policy_layout(bits, mode);
  std::cout << "Paper policy layout (Fig. 3):  " << policy.to_string() << "\n";
  std::cout << "  values per register: " << policy.num_lanes
            << ", scalar-sum budget per tile: " << policy.scalar_abs_budget()
            << ", worst-case period: " << policy.worst_case_period() << "\n\n";

  Table t("Guaranteed-exact layouts by required accumulation period");
  t.header({"min period", "lanes", "field bits", "actual period"});
  for (const std::int64_t p : {1, 8, 32, 128, 1024}) {
    const auto l = swar::guaranteed_layout(bits, p, mode);
    t.row()
        .cell(p)
        .cell(std::int64_t{l.num_lanes})
        .cell(std::int64_t{l.field_bits})
        .cell(l.worst_case_period());
  }
  t.print(std::cout);

  // Functional demonstration at this bitwidth.
  Rng rng(1);
  const int k = 512;
  MatrixI32 a(8, k), b(k, 8);
  fill_uniform(a, rng, policy.scalar_min(), policy.scalar_max());
  fill_uniform(b, rng, policy.value_min(), policy.value_max());
  swar::PackedGemmStats stats;
  const auto c = swar::gemm_packed(a, b, policy, {}, &stats);
  const bool exact = max_abs_diff(c, gemm_ref_int(a, b)) == 0;
  std::cout << "\nFunctional packed GEMM (8x" << k << "x8, full-range data):\n"
            << "  MAC instructions: " << stats.mac_instructions << " ("
            << format_fixed(
                   static_cast<double>(stats.mac_instructions) / (8.0 * k * 8),
                   2)
            << " per scalar MAC; 1/" << policy.num_lanes << " ideal)\n"
            << "  mean accumulation tile: "
            << format_fixed(stats.mean_tile_length, 1) << " steps, spills: "
            << stats.spill_events << "\n"
            << "  bit-exact: " << (exact ? "yes" : "NO") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, run);
}
