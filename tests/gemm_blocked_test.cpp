// The blocked GEMM's contract (tensor/gemm_blocked.h): bit-identical to
// the gemm_ref_* triple loops on every shape — including ragged edges that
// exercise the partial-tile kernels — at every thread count, with the same
// failure behaviour on overflow. The simd engine runs these tiles at SIMD
// tier none; the dispatcher's tests are in gemm_simd_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/gemm_blocked.h"
#include "tensor/gemm_ref.h"

namespace vitbit {
namespace {

TEST(GemmBlocked, BitIdenticalOnRaggedShapesInt) {
  Rng rng(11);
  // Shapes chosen to hit every micro-kernel path: full tiles only, ragged
  // rows, ragged columns, both, sub-tile matrices, and vectors.
  const int shapes[][3] = {{1, 1, 1},   {4, 8, 8},   {5, 3, 9},
                           {32, 16, 8}, {33, 17, 9}, {7, 1, 13},
                           {1, 64, 1},  {63, 5, 31}, {12, 100, 20}};
  for (const auto& s : shapes) {
    MatrixI32 a(s[0], s[1]), b(s[1], s[2]);
    fill_uniform(a, rng, -127, 127);
    fill_uniform(b, rng, -127, 127);
    const auto ref = gemm_ref_int(a, b);
    const auto blk = gemm_blocked_int(a, b);
    EXPECT_TRUE(blk == ref) << s[0] << "x" << s[1] << "x" << s[2]
                            << ": max|diff|=" << max_abs_diff(blk, ref);
  }
}

TEST(GemmBlocked, BitIdenticalOnInt8Operands) {
  Rng rng(12);
  MatrixI8 a(13, 37), b(37, 21);
  fill_uniform(a, rng, -128, 127);
  fill_uniform(b, rng, -128, 127);
  EXPECT_TRUE(gemm_blocked_int(a, b) == gemm_ref_int(a, b));
}

TEST(GemmBlocked, BitIdenticalOnRaggedShapesF32) {
  Rng rng(13);
  const int shapes[][3] = {{1, 1, 1}, {4, 8, 8}, {33, 17, 9}, {7, 129, 11}};
  for (const auto& s : shapes) {
    MatrixF32 a(s[0], s[1]), b(s[1], s[2]);
    for (auto& v : a.flat()) v = static_cast<float>(rng.normal());
    for (auto& v : b.flat()) v = static_cast<float>(rng.normal());
    const auto ref = gemm_ref_f32(a, b);
    const auto blk = gemm_blocked_f32(a, b);
    // Bit-identity, not closeness: double accumulation in reference k
    // order must survive the blocked traversal exactly.
    EXPECT_EQ(max_abs_diff(blk, ref), 0.0)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(GemmBlocked, ZeroDimensionedProducts) {
  // 0xK * KxN, MxK * Kx0, and M x 0 x N (empty reduction) must all yield
  // the reference's empty/zero results rather than tripping the packers.
  MatrixI32 a0(0, 5), b(5, 3);
  EXPECT_TRUE(gemm_blocked_int(a0, b) == gemm_ref_int(a0, b));
  MatrixI32 a(4, 5), b0(5, 0);
  EXPECT_TRUE(gemm_blocked_int(a, b0) == gemm_ref_int(a, b0));
  MatrixI32 ak(4, 0), bk(0, 3);
  const auto c = gemm_blocked_int(ak, bk);
  EXPECT_TRUE(c == gemm_ref_int(ak, bk));
  for (const auto v : c.flat()) EXPECT_EQ(v, 0);
}

TEST(GemmBlocked, ThreadCountInvariance) {
  Rng rng(14);
  // 3 row panels plus a ragged remainder, so the fan-out is real.
  MatrixI32 a(101, 48), b(48, 19);
  fill_uniform(a, rng, -100, 100);
  fill_uniform(b, rng, -100, 100);
  const auto serial = gemm_blocked_int(a, b, nullptr);
  for (int threads : {1, 2, 3, 7}) {
    ThreadPool pool(threads);
    EXPECT_TRUE(gemm_blocked_int(a, b, &pool) == serial)
        << "threads=" << threads;
  }
  MatrixF32 af = convert<float>(a), bf = convert<float>(b);
  const auto serial_f = gemm_blocked_f32(af, bf, nullptr);
  ThreadPool pool(4);
  EXPECT_EQ(max_abs_diff(gemm_blocked_f32(af, bf, &pool), serial_f), 0.0);
}

TEST(GemmBlocked, ShapeMismatchThrows) {
  MatrixI32 a(2, 3), b(4, 2);
  EXPECT_THROW(gemm_blocked_int(a, b), CheckError);
  MatrixF32 af(2, 3), bf(4, 2);
  EXPECT_THROW(gemm_blocked_f32(af, bf), CheckError);
}

TEST(GemmBlocked, Int32OverflowThrowsLikeReference) {
  // K copies of 2^15 * 2^15 = 2^30; four terms sum to 2^32 > INT32_MAX.
  MatrixI32 a(1, 4, 1 << 15), b(4, 1, 1 << 15);
  EXPECT_THROW(gemm_ref_int(a, b), CheckError);
  EXPECT_THROW(gemm_blocked_int(a, b), CheckError);
}

#ifndef NDEBUG
TEST(GemmBlocked, Int64HeadroomCheckMatchesReference) {
  // K * max|A| * max|B| above INT64_MAX: both engines refuse up front in
  // debug builds instead of silently wrapping the int64 accumulator.
  MatrixI32 a(1, 3, INT32_MAX), b(3, 1, INT32_MAX);
  EXPECT_THROW(gemm_ref_int(a, b), CheckError);
  EXPECT_THROW(gemm_blocked_int(a, b), CheckError);
}
#endif

TEST(GemmBlocked, RandomizedPropertySweep) {
  Rng rng(17);
  // 50 random ragged shapes, serial and pooled: the property that makes
  // the scalar tiles safe to be the simd engine's tier none.
  ThreadPool pool(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int m = static_cast<int>(rng.range(1, 40));
    const int k = static_cast<int>(rng.range(1, 60));
    const int n = static_cast<int>(rng.range(1, 40));
    MatrixI32 a(m, k), b(k, n);
    fill_uniform(a, rng, -127, 127);
    fill_uniform(b, rng, -127, 127);
    const auto ref = gemm_ref_int(a, b);
    EXPECT_TRUE(gemm_blocked_int(a, b) == ref)
        << "serial " << m << "x" << k << "x" << n;
    EXPECT_TRUE(gemm_blocked_int(a, b, &pool) == ref)
        << "pooled " << m << "x" << k << "x" << n;
  }
}

}  // namespace
}  // namespace vitbit
