// Host-side GEMM measurement shared by bench/host_gemm and the
// check_regression host-GEMM gate: times the reference triple loop once,
// then the simd engine (tensor/gemm_simd.h) at each requested SIMD tier on
// the same shape and operands, verifying every tier's output bit for bit
// against that one reference output.
//
// Timing is best-of-`repeats` wall-clock per tier (min absorbs scheduler
// noise far better than the mean on loaded CI machines). Everything other
// than the seconds/GFLOP-s fields is deterministic for a given shape and
// seed, which is what lets CI byte-diff stripped host_gemm reports across
// thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/matrix.h"
#include "tensor/simd_level.h"

namespace vitbit {

struct GemmShapeSpec {
  std::string name;  // workload label, e.g. "fc1"
  int m = 0;
  int k = 0;
  int n = 0;
};

struct GemmMeasurement {
  double ref_seconds = 0.0;     // best-of-repeats, reference engine
  double engine_seconds = 0.0;  // best-of-repeats, simd engine
  double ref_gflops = 0.0;
  double engine_gflops = 0.0;
  double speedup = 0.0;  // engine_gflops / ref_gflops
  // max_abs_diff(simd, reference): 0 when bit-identical (the contract).
  double max_abs_diff = 0.0;
};

// Int path: operands are int8-range values (the quantized-inference shape
// of the workload), drawn from Rng(seed). Result i times gemm_simd_int
// with the tier forced to levels[i] by set_simd_level_override (clamped
// to what the machine runs, like VITBIT_SIMD_LEVEL) against the one
// reference timing, which every result carries as its ref_seconds. The
// tier in force before the call is back in force after it.
std::vector<GemmMeasurement> measure_gemm_int(
    const GemmShapeSpec& shape, int repeats, std::uint64_t seed,
    ThreadPool* pool, std::span<const SimdLevel> levels);

// f32 path: standard-normal operands.
std::vector<GemmMeasurement> measure_gemm_f32(
    const GemmShapeSpec& shape, int repeats, std::uint64_t seed,
    ThreadPool* pool, std::span<const SimdLevel> levels);

}  // namespace vitbit
