// Google-benchmark microbenchmarks of the host-side library primitives:
// packing throughput, packed vs reference GEMM (functional), and the I-ViT
// integer kernels. These measure this library's CPU-side cost (e.g., the
// preprocessing the paper performs once per inference), not GPU timing —
// the simulator benches cover that.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "quant/ilayernorm.h"
#include "quant/shift_gelu.h"
#include "quant/shiftmax.h"
#include "swar/packed_gemm.h"
#include "tensor/gemm_ref.h"

namespace vitbit {
namespace {

const swar::LaneLayout kLayout =
    swar::paper_policy_layout(8, swar::LaneMode::kTopSigned);

MatrixI32 random_mat(int r, int c, std::int64_t lo, std::int64_t hi,
                     std::uint64_t seed) {
  Rng rng(seed);
  MatrixI32 m(r, c);
  fill_uniform(m, rng, lo, hi);
  return m;
}

void BM_PackMatrix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto b = random_mat(n, n, -128, 127, 1);
  for (auto _ : state) {
    swar::PackedMatrix packed(b, kLayout);
    benchmark::DoNotOptimize(packed);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_PackMatrix)->Arg(64)->Arg(256);

void BM_GemmReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = random_mat(n, n, -127, 127, 2);
  const auto b = random_mat(n, n, -128, 127, 3);
  for (auto _ : state) {
    auto c = gemm_ref_int(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmReference)->Arg(64)->Arg(128);

void BM_GemmPackedAdaptive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  MatrixI32 a(n, n);
  fill_gaussian_clipped(a, rng, 14.0, -127, 127);
  const auto b = random_mat(n, n, -128, 127, 5);
  const swar::PackedMatrix packed(b, kLayout);
  for (auto _ : state) {
    auto c = swar::gemm_packed(a, packed);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmPackedAdaptive)->Arg(64)->Arg(128);

void BM_Shiftmax(benchmark::State& state) {
  const auto x = random_mat(197, 197, -(8 << 10), 8 << 10, 6);
  for (auto _ : state) {
    auto p = quant::shiftmax(x, 10, 14);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_Shiftmax);

void BM_ShiftGelu(benchmark::State& state) {
  const auto x = random_mat(197, 3072, -(4 << 10), 4 << 10, 7);
  for (auto _ : state) {
    auto y = quant::shift_gelu(x, 10);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_ShiftGelu);

void BM_ILayerNorm(benchmark::State& state) {
  const auto x = random_mat(197, 768, -2000, 2000, 8);
  for (auto _ : state) {
    auto y = quant::ilayernorm(x, 8);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_ILayerNorm);

}  // namespace
}  // namespace vitbit

BENCHMARK_MAIN();
