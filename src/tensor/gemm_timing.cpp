#include "tensor/gemm_timing.h"

#include <chrono>

#include "common/rng.h"
#include "tensor/gemm_ref.h"
#include "tensor/gemm_simd.h"

namespace vitbit {

namespace {

double gflops(const GemmShapeSpec& s, double seconds) {
  if (seconds <= 0.0) return 0.0;
  const double flops = 2.0 * s.m * s.k * s.n;
  return flops / seconds / 1e9;
}

// Best-of-`repeats` wall-clock of fn(), result of the last run returned
// through `out` so the compiler cannot discard the work.
template <typename Fn, typename Out>
double best_of(int repeats, Out& out, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    out = fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

// Forces the simd engine's tier for one scope. Forcing the tier that was
// active before puts back the previous state as every caller sees it:
// active = min(detected, requested), and that minimum is a fixed point.
class ForcedSimdLevel {
 public:
  explicit ForcedSimdLevel(SimdLevel level) { set_simd_level_override(level); }
  ~ForcedSimdLevel() { set_simd_level_override(saved_); }
  ForcedSimdLevel(const ForcedSimdLevel&) = delete;
  ForcedSimdLevel& operator=(const ForcedSimdLevel&) = delete;

 private:
  SimdLevel saved_ = active_simd_level();
};

// The reference once, then the simd engine at every tier against it: one
// reference output is every tier's bit-identity oracle, one reference time
// every tier's speedup denominator.
template <typename Mat, typename RefFn, typename SimdFn>
std::vector<GemmMeasurement> measure(const GemmShapeSpec& shape, int repeats,
                                     std::span<const SimdLevel> levels,
                                     const Mat& a, const Mat& b,
                                     const RefFn& ref, const SimdFn& simd) {
  VITBIT_CHECK(repeats >= 1);
  Mat c_ref;
  const double ref_seconds = best_of(repeats, c_ref, [&] { return ref(a, b); });
  std::vector<GemmMeasurement> out;
  out.reserve(levels.size());
  for (const SimdLevel level : levels) {
    const ForcedSimdLevel force(level);
    GemmMeasurement m;
    Mat c_engine;
    m.ref_seconds = ref_seconds;
    m.engine_seconds = best_of(repeats, c_engine, [&] { return simd(a, b); });
    m.ref_gflops = gflops(shape, m.ref_seconds);
    m.engine_gflops = gflops(shape, m.engine_seconds);
    m.speedup = m.ref_gflops > 0.0 ? m.engine_gflops / m.ref_gflops : 0.0;
    m.max_abs_diff = static_cast<double>(max_abs_diff(c_engine, c_ref));
    out.push_back(m);
  }
  return out;
}

}  // namespace

std::vector<GemmMeasurement> measure_gemm_int(
    const GemmShapeSpec& shape, int repeats, std::uint64_t seed,
    ThreadPool* pool, std::span<const SimdLevel> levels) {
  Rng rng(seed);
  MatrixI32 a(shape.m, shape.k), b(shape.k, shape.n);
  fill_uniform(a, rng, -127, 127);
  fill_uniform(b, rng, -127, 127);
  return measure(
      shape, repeats, levels, a, b,
      [](const MatrixI32& x, const MatrixI32& y) {
        return gemm_ref_int(x, y);
      },
      [pool](const MatrixI32& x, const MatrixI32& y) {
        return gemm_simd_int(x, y, pool);
      });
}

std::vector<GemmMeasurement> measure_gemm_f32(
    const GemmShapeSpec& shape, int repeats, std::uint64_t seed,
    ThreadPool* pool, std::span<const SimdLevel> levels) {
  Rng rng(seed);
  MatrixF32 a(shape.m, shape.k), b(shape.k, shape.n);
  for (auto& v : a.flat()) v = static_cast<float>(rng.normal());
  for (auto& v : b.flat()) v = static_cast<float>(rng.normal());
  return measure(
      shape, repeats, levels, a, b,
      [](const MatrixF32& x, const MatrixF32& y) {
        return gemm_ref_f32(x, y);
      },
      [pool](const MatrixF32& x, const MatrixF32& y) {
        return gemm_simd_f32(x, y, pool);
      });
}

}  // namespace vitbit
