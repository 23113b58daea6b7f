// The simd engine's contract (tensor/gemm_simd.h): bit-identical to the
// gemm_ref_* triple loops at EVERY SIMD tier — avx2, sse, and the scalar
// fallback — on ragged shapes, near-overflow inputs, and every thread
// count. VITBIT_SIMD_LEVEL / set_simd_level_override make all tiers
// testable on any machine (levels above the detected one clamp), so this
// suite runs the same assertions three times and only the dispatch path
// differs. Plus the two-engine dispatcher surface: name round-trips,
// the error message listing every valid engine, and routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/gemm_blocked.h"
#include "tensor/gemm_dispatch.h"
#include "tensor/gemm_ref.h"
#include "tensor/gemm_simd.h"
#include "tensor/gemm_timing.h"
#include "tensor/simd_level.h"

namespace vitbit {
namespace {

// Forces one SIMD tier for a scope; restores the env/detected default on
// exit so a failing test can't leak its tier into later tests.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { set_simd_level_override(level); }
  ~ScopedSimdLevel() { clear_simd_level_override(); }
};

class ScopedEngine {
 public:
  explicit ScopedEngine(GemmEngine e) : saved_(default_gemm_engine()) {
    set_default_gemm_engine(e);
  }
  ~ScopedEngine() { set_default_gemm_engine(saved_); }

 private:
  GemmEngine saved_;
};

constexpr SimdLevel kAllLevels[] = {SimdLevel::kNone, SimdLevel::kSse,
                                    SimdLevel::kAvx2};

TEST(SimdLevel, NamesRoundTripAndErrorsListAll) {
  EXPECT_EQ(simd_level_from_string("none"), SimdLevel::kNone);
  EXPECT_EQ(simd_level_from_string("sse"), SimdLevel::kSse);
  EXPECT_EQ(simd_level_from_string("avx2"), SimdLevel::kAvx2);
  EXPECT_STREQ(simd_level_name(SimdLevel::kNone), "none");
  EXPECT_STREQ(simd_level_name(SimdLevel::kSse), "sse");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  try {
    simd_level_from_string("avx512");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(simd_level_names()),
              std::string::npos)
        << e.what();
  }
}

TEST(SimdLevel, OverrideClampsToDetected) {
  const SimdLevel detected = detected_simd_level();
  {
    ScopedSimdLevel force(SimdLevel::kNone);
    EXPECT_EQ(active_simd_level(), SimdLevel::kNone);
  }
  {
    // Asking for more than the machine has degrades, never fails.
    ScopedSimdLevel force(SimdLevel::kAvx2);
    EXPECT_EQ(active_simd_level(),
              detected < SimdLevel::kAvx2 ? detected : SimdLevel::kAvx2);
  }
}

TEST(GemmSimd, BitIdenticalOnRaggedShapesIntAtEveryTier) {
  // Shapes hitting full tiles, ragged rows, ragged columns, both, and
  // vectors — same sweep gemm_blocked_* are held to.
  const int shapes[][3] = {{1, 1, 1},   {4, 8, 8},   {5, 3, 9},
                           {32, 16, 8}, {33, 17, 9}, {7, 1, 13},
                           {1, 64, 1},  {63, 5, 31}, {12, 100, 20}};
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force(level);
    Rng rng(21);
    for (const auto& s : shapes) {
      MatrixI32 a(s[0], s[1]), b(s[1], s[2]);
      fill_uniform(a, rng, -127, 127);
      fill_uniform(b, rng, -127, 127);
      const auto ref = gemm_ref_int(a, b);
      EXPECT_TRUE(gemm_simd_int(a, b) == ref)
          << simd_level_name(level) << " " << s[0] << "x" << s[1] << "x"
          << s[2];
    }
  }
}

TEST(GemmSimd, BitIdenticalOnRaggedShapesF32AtEveryTier) {
  const int shapes[][3] = {{1, 1, 1}, {4, 8, 8}, {33, 17, 9}, {7, 129, 11}};
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force(level);
    Rng rng(22);
    for (const auto& s : shapes) {
      MatrixF32 a(s[0], s[1]), b(s[1], s[2]);
      for (auto& v : a.flat()) v = static_cast<float>(rng.normal());
      for (auto& v : b.flat()) v = static_cast<float>(rng.normal());
      // Bit-identity, not closeness: the SIMD kernels perform the same
      // double multiply-and-add per element in the same k order.
      EXPECT_EQ(max_abs_diff(gemm_simd_f32(a, b), gemm_ref_f32(a, b)), 0.0)
          << simd_level_name(level) << " " << s[0] << "x" << s[1] << "x"
          << s[2];
    }
  }
}

TEST(GemmSimd, NearInt32MaxHeadroom) {
  // 3 * 26754^2 = 2,147,329,548 — within 155k of INT32_MAX. The int64
  // accumulator must carry these exactly at every tier, and the mixed-sign
  // variant must cancel exactly.
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force(level);
    MatrixI32 a(1, 3, 26754), b(3, 1, 26754);
    const auto c = gemm_simd_int(a, b);
    EXPECT_EQ(c.at(0, 0), 2147329548) << simd_level_name(level);
    EXPECT_TRUE(c == gemm_ref_int(a, b));
    a.at(0, 1) = -26754;
    b.at(1, 0) = 26754;
    EXPECT_TRUE(gemm_simd_int(a, b) == gemm_ref_int(a, b))
        << simd_level_name(level);
  }
}

TEST(GemmSimd, Int32OverflowThrowsLikeReferenceAtEveryTier) {
  // Four terms of 2^30 sum to 2^32 > INT32_MAX: every tier must refuse
  // exactly where the reference does.
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force(level);
    MatrixI32 a(1, 4, 1 << 15), b(4, 1, 1 << 15);
    EXPECT_THROW(gemm_simd_int(a, b), CheckError) << simd_level_name(level);
  }
}

TEST(GemmSimd, ThreadCountInvarianceAtEveryTier) {
  Rng rng(23);
  // 101 rows = several row panels plus a ragged remainder per thread.
  MatrixI32 a(101, 48), b(48, 19);
  fill_uniform(a, rng, -100, 100);
  fill_uniform(b, rng, -100, 100);
  MatrixF32 af = convert<float>(a), bf = convert<float>(b);
  const auto ref = gemm_ref_int(a, b);
  const auto ref_f = gemm_ref_f32(af, bf);
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force(level);
    EXPECT_TRUE(gemm_simd_int(a, b, nullptr) == ref)
        << simd_level_name(level) << " serial";
    for (int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      EXPECT_TRUE(gemm_simd_int(a, b, &pool) == ref)
          << simd_level_name(level) << " threads=" << threads;
      EXPECT_EQ(max_abs_diff(gemm_simd_f32(af, bf, &pool), ref_f), 0.0)
          << simd_level_name(level) << " threads=" << threads;
    }
  }
}

TEST(GemmSimd, NoneTierEqualsBlockedEngine) {
  // The bottom of the fallback chain IS gemm_blocked.h's scalar tiles,
  // so forcing none must reproduce gemm_blocked_* exactly.
  ScopedSimdLevel force(SimdLevel::kNone);
  Rng rng(24);
  MatrixI32 a(19, 37), b(37, 23);
  fill_uniform(a, rng, -127, 127);
  fill_uniform(b, rng, -127, 127);
  EXPECT_TRUE(gemm_simd_int(a, b) == gemm_blocked_int(a, b));
}

// ---------------------------------------------------------------------
// Random shapes through gemm_int / gemm_f32 (the simd engine) against the
// gemm_ref_* oracle. At avx2 the simd engine takes its narrow path (int16
// operands, int32 sums) whenever every operand is an integer in
// [-32767, 32767] and max|a| * max|b| * K <= INT32_MAX, and its int64 /
// double tiles otherwise; at sse and none it always takes the tiles. Every
// call must return the reference's bits or throw where the reference
// throws, at every tier and pool size.

// A GEMM call's output, or the message of the CheckError it threw.
template <typename T>
struct Outcome {
  Matrix<T> c;
  std::string error;
};

template <typename T, typename Fn>
Outcome<T> outcome_of(Fn&& fn) {
  Outcome<T> out;
  try {
    out.c = fn();
  } catch (const CheckError& e) {
    out.error = e.what();
  }
  return out;
}

// Bitwise: -0.0 differs from +0.0 and a NaN equals only the same NaN.
template <typename T>
bool same_bits(const Matrix<T>& x, const Matrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

// The engines and the reference report an overflow at different elements
// (tile order against row-major order), so a throw matches a throw of the
// same kind.
template <typename T>
void expect_same_outcome(const Outcome<T>& got, const Outcome<T>& want,
                         const std::string& where) {
  if (!want.error.empty()) {
    EXPECT_NE(got.error.find("int32 accumulator overflow"), std::string::npos)
        << where << ": the reference threw '" << want.error << "', got '"
        << got.error << "'";
    EXPECT_NE(want.error.find("int32 accumulator overflow"), std::string::npos)
        << want.error;
    return;
  }
  EXPECT_TRUE(got.error.empty()) << where << ": " << got.error;
  EXPECT_TRUE(same_bits(got.c, want.c)) << where;
}

// Whether the narrow path's conditions hold, computed independently of
// the engine: every value an integer in [-32767, 32767] and the bound.
template <typename T>
bool narrow_eligible(const Matrix<T>& a, const Matrix<T>& b) {
  const auto max_abs = [](const Matrix<T>& m) -> std::int64_t {
    double worst = 0;
    for (const T v : m.flat()) {
      const auto d = static_cast<double>(v);
      if (!(std::abs(d) <= 32767.0) || d != std::trunc(d)) return -1;
      worst = std::max(worst, std::abs(d));
    }
    return static_cast<std::int64_t>(worst);
  };
  const std::int64_t ma = max_abs(a), mb = max_abs(b);
  return ma >= 0 && mb >= 0 && ma * mb * a.cols() <= INT32_MAX;
}

// Checks one (a, b) pair at every tier, serially and on pools of 1, 2 and
// 4 threads, against the reference.
class GemmAgainstRef {
 public:
  GemmAgainstRef() : p1_(1), p2_(2), p4_(4) {}

  template <typename T>
  void check(const Matrix<T>& a, const Matrix<T>& b,
             const std::string& label) {
    ScopedEngine engine(GemmEngine::kSimd);
    const auto want = outcome_of<T>([&] { return ref(a, b); });
    const std::string shape = label + " " + std::to_string(a.rows()) + "x" +
                              std::to_string(a.cols()) + "x" +
                              std::to_string(b.cols());
    ThreadPool* const pools[] = {nullptr, &p1_, &p2_, &p4_};
    for (const SimdLevel level : kAllLevels) {
      ScopedSimdLevel force(level);
      for (ThreadPool* pool : pools) {
        const auto got = outcome_of<T>([&] { return run(a, b, pool); });
        const std::string where = shape + " at " + simd_level_name(level) +
                                  " threads=" +
                                  std::to_string(pool ? pool->size() : 0);
        expect_same_outcome(got, want, where);
      }
    }
  }

 private:
  static MatrixI32 ref(const MatrixI32& a, const MatrixI32& b) {
    return gemm_ref_int(a, b);
  }
  static MatrixF32 ref(const MatrixF32& a, const MatrixF32& b) {
    return gemm_ref_f32(a, b);
  }
  static MatrixI32 run(const MatrixI32& a, const MatrixI32& b,
                       ThreadPool* pool) {
    return gemm_int(a, b, pool);
  }
  static MatrixF32 run(const MatrixF32& a, const MatrixF32& b,
                       ThreadPool* pool) {
    return gemm_f32(a, b, pool);
  }

  ThreadPool p1_, p2_, p4_;
};

constexpr std::int64_t kMagnitudes[] = {127, 4095, 32767};

// Shapes M, N in [0, 70] and K in [0, 130], each operand drawn from one of
// the three magnitude classes.
template <typename Draw>
void for_random_shapes(std::uint64_t seed, int cases, const Draw& draw) {
  Rng rng(seed);
  for (int t = 0; t < cases; ++t) {
    const int m = static_cast<int>(rng.range(0, 70));
    const int k = static_cast<int>(rng.range(0, 130));
    const int n = static_cast<int>(rng.range(0, 70));
    const std::int64_t ma = kMagnitudes[rng.below(3)];
    const std::int64_t mb = kMagnitudes[rng.below(3)];
    MatrixI32 a(m, k), b(k, n);
    fill_uniform(a, rng, -ma, ma);
    fill_uniform(b, rng, -mb, mb);
    draw(a, b, rng, "case " + std::to_string(t));
  }
}

TEST(GemmRandomShapes, IntMatchesReferenceAtEveryTierAndPool) {
  GemmAgainstRef check;
  int narrow = 0, wide = 0;
  for_random_shapes(61, 120, [&](const MatrixI32& a, const MatrixI32& b,
                                 Rng&, const std::string& label) {
    (narrow_eligible(a, b) ? narrow : wide) += 1;
    check.check(a, b, label);
  });
  // Both sides of the narrow conditions are reached.
  EXPECT_GE(narrow, 30);
  EXPECT_GE(wide, 15);
}

TEST(GemmRandomShapes, F32MatchesReferenceBitwiseAtEveryTierAndPool) {
  // A quarter of the cases carry one value the narrow path must refuse,
  // or a -0.0, which it takes.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.5f, -2.5f, nan, inf, -inf, 32768.0f, -32768.0f,
                            -0.0f};
  GemmAgainstRef check;
  int narrow = 0, wide = 0;
  for_random_shapes(62, 120, [&](const MatrixI32& ai, const MatrixI32& bi,
                                 Rng& rng, const std::string& label) {
    MatrixF32 a = convert<float>(ai), b = convert<float>(bi);
    if (rng.below(4) == 0) {
      MatrixF32& target = rng.below(2) == 0 ? a : b;
      if (target.size() > 0)
        target.flat()[rng.below(target.size())] = specials[rng.below(8)];
    }
    (narrow_eligible(a, b) ? narrow : wide) += 1;
    check.check(a, b, label);
  });
  EXPECT_GE(narrow, 30);
  EXPECT_GE(wide, 15);
}

TEST(GemmRandomShapes, IntPinsBothSidesOfEveryNarrowCondition) {
  GemmAgainstRef check;
  // INT32_MAX is prime, so no product of int16 magnitudes and K equals
  // it. K = 2 at 32767 is the largest bound for K = 2 and every vpmaddwd
  // pair sum is 2 * 32767^2, the kernel's worst case.
  check.check(MatrixI32(5, 2, 32767), MatrixI32(2, 17, 32767), "K=2 at 32767");
  check.check(MatrixI32(5, 2, -32767), MatrixI32(2, 17, 32767),
              "K=2 at -32767");
  // K = 3: 3 * 26754 * 26755 <= INT32_MAX (narrow, the sum is the bound);
  // 3 * 26755^2 is past it, and so is the all-max sum, which throws.
  check.check(MatrixI32(6, 3, 26754), MatrixI32(3, 18, 26755),
              "K=3 at the bound");
  check.check(MatrixI32(6, 3, 26755), MatrixI32(3, 18, 26755), "K=3 past");
  // One step past the bound with alternating signs: the sum fits, so the
  // wide tiles return it.
  MatrixI32 alt(6, 3, 26755);
  alt.at(0, 1) = alt.at(3, 1) = -26755;
  check.check(alt, MatrixI32(3, 18, 26755), "K=3 past, sum fits");
  // int16 operands whose true sum overflows int32 must still throw.
  check.check(MatrixI32(4, 4, 32767), MatrixI32(4, 16, 32767), "K=4 overflow");
  check.check(MatrixI32(4, 64, 4095), MatrixI32(64, 16, 4095), "K=64 overflow");
  // -32768 is outside the narrow range, alone and squared.
  Rng rng(63);
  MatrixI32 a(9, 9), b(9, 20);
  fill_uniform(a, rng, -100, 100);
  fill_uniform(b, rng, -100, 100);
  a.at(2, 4) = -32768;
  check.check(a, b, "-32768 in A");
  check.check(transpose(b), transpose(a), "-32768 in B");
  check.check(MatrixI32(3, 1, -32768), MatrixI32(1, 3, -32768),
              "-32768 squared");
  // Values past int16 with a bound that would pass.
  a.at(2, 4) = 40000;
  check.check(a, b, "40000 in A");
  a.at(2, 4) = -(1 << 20);
  check.check(a, b, "-2^20 in A");
  a.at(2, 4) = INT32_MAX;
  check.check(a, MatrixI32(9, 20, 0), "INT32_MAX times zero");
  // Degenerate shapes.
  check.check(MatrixI32(3, 0, 0), MatrixI32(0, 5, 0), "K=0");
  check.check(MatrixI32(0, 7, 1), MatrixI32(7, 5, 1), "M=0");
  check.check(MatrixI32(3, 7, 1), MatrixI32(7, 0, 1), "N=0");
}

TEST(GemmRandomShapes, F32PinsRoundingSignedZeroAndRefusedValues) {
  GemmAgainstRef check;
  // Integer sums in (2^24, 2^31) round once to float on both paths.
  check.check(MatrixF32(5, 1, 32767), MatrixF32(1, 17, 32767), "sum 32767^2");
  check.check(MatrixF32(5, 2, 32767), MatrixF32(2, 17, 32767), "sum 2*32767^2");
  check.check(MatrixF32(5, 2, 32767), MatrixF32(2, 17, 32765), "K=2 rounding");
  // Sums past 2^31 take the double tiles.
  check.check(MatrixF32(5, 3, 32767), MatrixF32(3, 17, 32767), "sum past 2^31");
  check.check(MatrixF32(6, 3, 26755), MatrixF32(3, 18, 26755), "one step past");
  // -0.0 operands take the narrow path; zero sums are +0.0 everywhere.
  check.check(MatrixF32(5, 9, -0.0f), MatrixF32(9, 17, 3.0f), "-0.0 times 3");
  check.check(MatrixF32(5, 9, -0.0f), MatrixF32(9, 17, -0.0f), "-0.0 squared");
  check.check(MatrixF32(5, 9, 0.0f), MatrixF32(9, 17, -5.0f), "0 times -5");
  // Values the narrow path refuses, in an otherwise narrow product.
  Rng rng(64);
  MatrixI32 ai(9, 11), bi(11, 20);
  fill_uniform(ai, rng, -127, 127);
  fill_uniform(bi, rng, -127, 127);
  const MatrixF32 a0 = convert<float>(ai), b0 = convert<float>(bi);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float probes[] = {0.5f, -0.5f, 1.0e-3f, nan, inf, -inf, 32768.0f,
                          -32768.0f, 40000.0f, 3.0e9f, -0.0f};
  for (const float v : probes) {
    MatrixF32 a = a0, b = b0;
    a.at(4, 10) = v;
    check.check(a, b0, "A holds " + std::to_string(v));
    b.at(10, 19) = v;
    check.check(a0, b, "B holds " + std::to_string(v));
  }
}

TEST(GemmDispatch, SimdEngineNameRoundTripsAndErrorListsAll) {
  for (const GemmEngine e : {GemmEngine::kRef, GemmEngine::kSimd})
    EXPECT_EQ(gemm_engine_from_string(gemm_engine_name(e)), e);
  EXPECT_STREQ(gemm_engine_name(GemmEngine::kRef), "ref");
  EXPECT_STREQ(gemm_engine_name(GemmEngine::kSimd), "simd");
  EXPECT_STREQ(gemm_engine_names(), "ref|simd");
  // One error path, shared by --gemm and VITBIT_GEMM: it must name every
  // valid engine so a typo is self-correcting. "blocked" names no engine:
  // the scalar tiles run as the simd engine at tier none.
  for (const char* bad : {"fast", "", "blocked"}) {
    try {
      gemm_engine_from_string(bad);
      ADD_FAILURE() << "expected CheckError for '" << bad << "'";
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + std::string(bad) + "'"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("ref|simd"), std::string::npos) << msg;
    }
  }
}

TEST(GemmDispatch, SimdEngineRoutesThroughDispatcher) {
  Rng rng(25);
  MatrixI32 a(9, 33), b(33, 14);
  fill_uniform(a, rng, -50, 50);
  fill_uniform(b, rng, -50, 50);
  const auto ref = gemm_ref_int(a, b);
  {
    ScopedEngine e(GemmEngine::kRef);
    EXPECT_EQ(default_gemm_engine(), GemmEngine::kRef);
    EXPECT_TRUE(gemm_int(a, b) == ref);
  }
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force_level(level);
    ScopedEngine e(GemmEngine::kSimd);
    EXPECT_EQ(default_gemm_engine(), GemmEngine::kSimd);
    EXPECT_TRUE(gemm_int(a, b) == ref) << simd_level_name(level);
  }
}

TEST(GemmDispatch, F32DispatchMatchesReference) {
  Rng rng(16);
  MatrixF32 a(6, 40), b(40, 10);
  for (auto& v : a.flat()) v = static_cast<float>(rng.normal());
  for (auto& v : b.flat()) v = static_cast<float>(rng.normal());
  const auto ref = gemm_ref_f32(a, b);
  {
    ScopedEngine e(GemmEngine::kRef);
    EXPECT_EQ(max_abs_diff(gemm_f32(a, b), ref), 0.0);
  }
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel force_level(level);
    ScopedEngine e(GemmEngine::kSimd);
    EXPECT_EQ(max_abs_diff(gemm_f32(a, b), ref), 0.0)
        << simd_level_name(level);
  }
}

TEST(GemmTiming, TimesEveryTierAgainstOneReferenceAndRestoresTheTier) {
  // measure_gemm_* force each requested tier for its timing and put back
  // the tier that was active before, whether or not an override was set.
  const GemmShapeSpec shape{"small", 9, 33, 14};
  const auto check = [&] {
    const SimdLevel active = active_simd_level();
    const auto mi = measure_gemm_int(shape, 1, 7, nullptr, kAllLevels);
    EXPECT_EQ(active_simd_level(), active);
    const auto mf = measure_gemm_f32(shape, 1, 7, nullptr, kAllLevels);
    EXPECT_EQ(active_simd_level(), active);
    ASSERT_EQ(mi.size(), std::size(kAllLevels));
    ASSERT_EQ(mf.size(), std::size(kAllLevels));
    for (std::size_t i = 0; i < mi.size(); ++i) {
      EXPECT_EQ(mi[i].max_abs_diff, 0.0) << simd_level_name(kAllLevels[i]);
      EXPECT_EQ(mf[i].max_abs_diff, 0.0) << simd_level_name(kAllLevels[i]);
      EXPECT_EQ(mi[i].ref_seconds, mi[0].ref_seconds);
      EXPECT_EQ(mf[i].ref_seconds, mf[0].ref_seconds);
    }
  };
  check();
  for (const SimdLevel before : kAllLevels) {
    ScopedSimdLevel outer(before);
    check();
  }
}

}  // namespace
}  // namespace vitbit
