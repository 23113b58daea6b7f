#include "tensor/gemm_dispatch.h"

#include <atomic>
#include <cstdlib>

#include "tensor/gemm_ref.h"
#include "tensor/gemm_simd.h"

namespace vitbit {

namespace {

GemmEngine engine_from_env() {
  const char* env = std::getenv("VITBIT_GEMM");
  if (env == nullptr || *env == '\0') return GemmEngine::kSimd;
  return gemm_engine_from_string(env);
}

std::atomic<GemmEngine>& engine_slot() {
  static std::atomic<GemmEngine> engine{engine_from_env()};
  return engine;
}

}  // namespace

const char* gemm_engine_name(GemmEngine engine) {
  return engine == GemmEngine::kRef ? "ref" : "simd";
}

GemmEngine gemm_engine_from_string(const std::string& name) {
  if (name == "ref") return GemmEngine::kRef;
  if (name == "simd") return GemmEngine::kSimd;
  VITBIT_CHECK_MSG(false, "unknown GEMM engine '" << name << "' (valid: "
                                                  << gemm_engine_names()
                                                  << ")");
  return GemmEngine::kSimd;
}

const char* gemm_engine_names() { return "ref|simd"; }

GemmEngine default_gemm_engine() {
  return engine_slot().load(std::memory_order_relaxed);
}

void set_default_gemm_engine(GemmEngine engine) {
  engine_slot().store(engine, std::memory_order_relaxed);
}

MatrixI32 gemm_int(const MatrixI32& a, const MatrixI32& b, ThreadPool* pool) {
  if (default_gemm_engine() == GemmEngine::kRef) return gemm_ref_int(a, b);
  return gemm_simd_int(a, b, pool);
}

MatrixF32 gemm_f32(const MatrixF32& a, const MatrixF32& b, ThreadPool* pool) {
  if (default_gemm_engine() == GemmEngine::kRef) return gemm_ref_f32(a, b);
  return gemm_simd_f32(a, b, pool);
}

}  // namespace vitbit
