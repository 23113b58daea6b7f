// Host-side GEMM measurement shared by bench/host_gemm and the
// check_regression host-GEMM gate: times the reference triple loop once,
// then each candidate engine (blocked or simd) on the same shape and
// operands, verifying every engine's output bit for bit against that one
// reference output.
//
// Timing is best-of-`repeats` wall-clock per engine (min absorbs scheduler
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
#include "tensor/gemm_dispatch.h"
#include "tensor/matrix.h"

namespace vitbit {

struct GemmShapeSpec {
  std::string name;  // workload label, e.g. "fc1"
  int m = 0;
  int k = 0;
  int n = 0;
};

struct GemmMeasurement {
  double ref_seconds = 0.0;     // best-of-repeats, reference engine
  double engine_seconds = 0.0;  // best-of-repeats, measured engine
  double ref_gflops = 0.0;
  double engine_gflops = 0.0;
  double speedup = 0.0;  // engine_gflops / ref_gflops
  // max_abs_diff(engine, reference): 0 when bit-identical (the contract).
  double max_abs_diff = 0.0;
};

// Int path: operands are int8-range values (the quantized-inference shape
// of the workload), drawn from Rng(seed). Result i times engines[i]
// against the one reference timing, which every result carries as its
// ref_seconds (kRef measures the reference against itself, useful only as
// a sanity check).
std::vector<GemmMeasurement> measure_gemm_int(
    const GemmShapeSpec& shape, int repeats, std::uint64_t seed,
    ThreadPool* pool, std::span<const GemmEngine> engines);

// f32 path: standard-normal operands.
std::vector<GemmMeasurement> measure_gemm_f32(
    const GemmShapeSpec& shape, int repeats, std::uint64_t seed,
    ThreadPool* pool, std::span<const GemmEngine> engines);

}  // namespace vitbit
