// Quickstart: pack INT8 operands into registers, run a packed GEMM, and
// verify it is bit-exact against the reference — the core VitBit mechanism
// in ~50 lines.
#include <array>
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "swar/packed_gemm.h"
#include "tensor/gemm_ref.h"

namespace {

int run(int, char**) {
  using namespace vitbit;

  // 1. The paper's packing policy for INT8: two values per 32-bit register
  //    (Figure 3b), signed values handled by the top-signed lane scheme.
  const auto layout = swar::paper_policy_layout(8, swar::LaneMode::kTopSigned);
  std::cout << "INT8 layout: " << layout.to_string() << "\n";

  // 2. Pack two values into one register word and read them back.
  const std::array<std::int32_t, 2> vals = {-57, 93};
  const std::uint32_t word = swar::pack_lanes(vals, layout);
  std::array<std::int32_t, 2> back{};
  swar::unpack_lanes(word, layout, back);
  std::cout << "packed {" << vals[0] << ", " << vals[1] << "} -> 0x" << std::hex
            << word << std::dec << " -> {" << back[0] << ", " << back[1]
            << "}\n";

  // 3. A packed GEMM: one 32-bit multiply-accumulate per TWO output columns.
  Rng rng(42);
  MatrixI32 a(64, 256);  // weights (Gaussian, like a trained layer)
  fill_gaussian_clipped(a, rng, 14.0, -127, 127);
  MatrixI32 b(256, 64);  // activations
  fill_uniform(b, rng, -128, 127);

  swar::PackedGemmStats stats;
  const MatrixI32 c_packed = swar::gemm_packed(a, b, layout, {}, &stats);
  const MatrixI32 c_ref = gemm_ref_int(a, b);

  std::cout << "packed GEMM: " << stats.mac_instructions
            << " MAC instructions (reference would need "
            << std::int64_t{64} * 256 * 64 << "), mean accumulation tile "
            << stats.mean_tile_length << " steps\n";
  std::cout << "bit-exact vs reference: "
            << (max_abs_diff(c_packed, c_ref) == 0 ? "yes" : "NO") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, run);
}
