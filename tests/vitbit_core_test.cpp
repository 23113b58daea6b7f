#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/vit_model.h"
#include "tensor/gemm_dispatch.h"
#include "tensor/gemm_ref.h"
#include "tensor/simd_level.h"
#include "vitbit/executors.h"
#include "vitbit/fused_gemm.h"
#include "vitbit/pipeline.h"
#include "vitbit/preprocess.h"
#include "vitbit/tuner.h"

namespace vitbit::core {
namespace {

const arch::OrinSpec kSpec;
const arch::Calibration& kCalib = arch::default_calibration();

MatrixI32 random_i8(Rng& rng, int r, int c, double sigma = 14.0) {
  MatrixI32 m(r, c);
  fill_gaussian_clipped(m, rng, sigma, -127, 127);
  return m;
}

TEST(SplitWidths, MatchesAlgorithm1) {
  // N=100, m=4, n=2: N3 = 100*4/5 = 80; cuda = 20; N1 = 20*2/3 = 13 -> 12
  // (rounded to a packing group); N2 = 8.
  const auto w = split_widths(100, 4, 2);
  EXPECT_EQ(w.n3, 80);
  EXPECT_EQ(w.n1, 12);
  EXPECT_EQ(w.n2, 8);
  EXPECT_EQ(w.n1 % 2, 0);
}

TEST(SplitWidths, NoFpSliceGivesAllCudaToInt) {
  const auto w = split_widths(100, 4, 1, /*fp_slice=*/false);
  EXPECT_EQ(w.n3, 80);
  EXPECT_EQ(w.n1, 20);
  EXPECT_EQ(w.n2, 0);
}

TEST(SplitWidths, ZeroMRatioDisablesTensorSlice) {
  const auto w = split_widths(60, 0, 2);
  EXPECT_EQ(w.n3, 0);
  EXPECT_EQ(w.n1 + w.n2, 60);
  EXPECT_GT(w.n1, w.n2) << "Eq. 1: packed INT takes n of n+1 columns";
}

TEST(Preprocess, SlicesRoundTrip) {
  Rng rng(1);
  const auto b = random_i8(rng, 16, 50);
  const auto layout = swar::paper_policy_layout(8, swar::LaneMode::kTopSigned);
  const auto pre = input_preprocessing(b, 4, 2, layout);
  // B1 unpacks to the first n1 columns.
  const auto b1 = pre.b1.unpack();
  for (int r = 0; r < b.rows(); ++r) {
    for (int c = 0; c < pre.widths.n1; ++c)
      EXPECT_EQ(b1.at(r, c), b.at(r, c));
    for (int c = 0; c < pre.widths.n2; ++c)
      EXPECT_FLOAT_EQ(pre.b2.at(r, c),
                      static_cast<float>(b.at(r, pre.widths.n1 + c)));
    for (int c = 0; c < pre.widths.n3; ++c)
      EXPECT_EQ(pre.b3.at(r, c), b.at(r, pre.widths.n1 + pre.widths.n2 + c));
  }
}

TEST(Preprocess, WeightDuplication) {
  Rng rng(2);
  const auto a = random_i8(rng, 4, 6);
  const auto w = weight_preprocessing(a);
  EXPECT_EQ(w.a1, a);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(w.a2.flat()[i], static_cast<float>(a.flat()[i]));
}

TEST(FusedGemm, MatchesReferenceExactly) {
  Rng rng(3);
  const auto a = random_i8(rng, 8, 96);
  const auto b = random_i8(rng, 96, 40, 25.0);
  const auto layout = swar::paper_policy_layout(8, swar::LaneMode::kTopSigned);
  const auto weights = weight_preprocessing(a);
  const auto input = input_preprocessing(b, 4, 2, layout);
  FusedGemmStats stats;
  const auto c = vitbit_gemm(weights, input, {}, &stats);
  EXPECT_EQ(max_abs_diff(c, gemm_ref_int(a, b)), 0)
      << "fused execution must not change the result (accuracy claim)";
  EXPECT_GT(stats.packed.mac_instructions, 0);
  EXPECT_GT(stats.fp_macs, 0);
  EXPECT_GT(stats.tensor_macs, 0);
}

TEST(FusedGemm, FpSliceExactnessGuard) {
  // K * max|a| * max|b| beyond 2^24 must be refused, not silently wrong.
  MatrixI32 a(1, 2048, 127);
  MatrixI32 b(2048, 6, 127);
  const auto layout = swar::paper_policy_layout(8, swar::LaneMode::kTopSigned);
  const auto weights = weight_preprocessing(a);
  const auto input = input_preprocessing(b, 0, 2, layout);
  EXPECT_THROW(vitbit_gemm(weights, input), CheckError);
}

class ExecutorEquivalence : public ::testing::TestWithParam<Strategy> {};

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { set_simd_level_override(level); }
  ~ScopedSimdLevel() { clear_simd_level_override(); }
};

constexpr SimdLevel kAllLevels[] = {SimdLevel::kNone, SimdLevel::kSse,
                                    SimdLevel::kAvx2};

TEST_P(ExecutorEquivalence, AllStrategiesProduceIdenticalResults) {
  // At every forced SIMD tier, on a signed operand pair and on a
  // non-negative one (which selects kUnsigned lanes).
  const Strategy s = GetParam();
  Rng rng(4 + static_cast<int>(s));
  const auto a = random_i8(rng, 12, 64);
  const auto b = random_i8(rng, 64, 33, 30.0);
  MatrixI32 a_pos(12, 64), b_pos(64, 33);
  fill_uniform(a_pos, rng, 0, 255);
  fill_uniform(b_pos, rng, 0, 255);
  const auto fn = make_gemm_executor(s);
  SCOPED_TRACE(strategy_name(s));
  for (const SimdLevel level : kAllLevels) {
    SCOPED_TRACE(simd_level_name(level));
    ScopedSimdLevel force(level);
    EXPECT_EQ(max_abs_diff(fn(a, b), gemm_ref_int(a, b)), 0);
    EXPECT_EQ(max_abs_diff(fn(a_pos, b_pos), gemm_ref_int(a_pos, b_pos)), 0)
        << "non-negative operands";
  }
}

class ScopedEngine {
 public:
  explicit ScopedEngine(GemmEngine e) : saved_(default_gemm_engine()) {
    set_default_gemm_engine(e);
  }
  ~ScopedEngine() { set_default_gemm_engine(saved_); }

 private:
  GemmEngine saved_;
};

TEST_P(ExecutorEquivalence, RefEngineProducesIdenticalResults) {
  // VITBIT_GEMM=ref: the oracle engines under every executor.
  const Strategy s = GetParam();
  Rng rng(40 + static_cast<int>(s));
  const auto a = random_i8(rng, 7, 48);
  const auto b = random_i8(rng, 48, 29, 30.0);
  MatrixI32 a_pos(7, 48), b_pos(48, 29);
  fill_uniform(a_pos, rng, 0, 255);
  fill_uniform(b_pos, rng, 0, 255);
  const auto fn = make_gemm_executor(s);
  SCOPED_TRACE(strategy_name(s));
  ScopedEngine ref(GemmEngine::kRef);
  EXPECT_EQ(max_abs_diff(fn(a, b), gemm_ref_int(a, b)), 0);
  EXPECT_EQ(max_abs_diff(fn(a_pos, b_pos), gemm_ref_int(a_pos, b_pos)), 0)
      << "non-negative operands";
}

TEST_P(ExecutorEquivalence, EmptyOperandsGiveEmptyProducts) {
  const Strategy s = GetParam();
  const auto fn = make_gemm_executor(s);
  SCOPED_TRACE(strategy_name(s));
  const int shapes[][3] = {{0, 8, 15}, {3, 0, 15}, {3, 8, 0}, {0, 0, 0}};
  for (const auto& [m, k, n] : shapes) {
    SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n);
    MatrixI32 a(m, k, -3), b(k, n, 5);
    const MatrixI32 c = fn(a, b);
    EXPECT_EQ(c.rows(), m);
    EXPECT_EQ(c.cols(), n);
    EXPECT_EQ(c, gemm_ref_int(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ExecutorEquivalence,
                         ::testing::ValuesIn(all_strategies()),
                         [](const auto& info) {
                           std::string s = strategy_name(info.param);
                           for (auto& ch : s)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return s;
                         });

// The executors' call-time CheckError contract. IC+FC, Tacker and TC+IC+FC
// run their INT slice on the one-lane layout paper_policy_layout(9);
// VitBit packs at the default bitwidth 8. A's values are the INT slice's
// scalars and B's its lane values.
constexpr Strategy kSplitStrategies[] = {Strategy::kICFC, Strategy::kTacker,
                                         Strategy::kTCICFC, Strategy::kVitBit};
constexpr Strategy kFpStrategies[] = {Strategy::kICFC, Strategy::kTCICFC,
                                      Strategy::kVitBit};

struct IntSliceRange {
  int lo;           // signed operands
  int hi;           // signed operands
  int hi_unsigned;  // both operands non-negative (lo is 0)
};

IntSliceRange int_slice_range(Strategy s) {
  if (s == Strategy::kVitBit) return {-128, 127, 255};
  return {-256, 255, 511};
}

// Columns [n1, n1 + n2) of an N-column B are the FP slice's.
SplitWidths executor_widths(Strategy s, int n) {
  const ExecutorConfig cfg;
  const int m_ratio = s == Strategy::kICFC ? 0 : cfg.m_ratio;
  const int n_ratio = s == Strategy::kVitBit ? 2 : 1;
  return split_widths(n, m_ratio, n_ratio, s != Strategy::kTacker);
}

void expect_exact(const nn::GemmFn& fn, const MatrixI32& a,
                  const MatrixI32& b) {
  MatrixI32 c;
  ASSERT_NO_THROW(c = fn(a, b));
  EXPECT_EQ(c, gemm_ref_int(a, b));
}

TEST(ExecutorContract, ScalarOutsideIntSliceRangeThrows) {
  for (const Strategy s : kSplitStrategies) {
    SCOPED_TRACE(strategy_name(s));
    ASSERT_GT(executor_widths(s, 15).n1, 0);
    const auto fn = make_gemm_executor(s);
    const auto r = int_slice_range(s);
    MatrixI32 a(3, 8, 2), b(8, 15, -1);  // signed lanes
    MatrixI32 a_pos(3, 8, 2), b_pos(8, 15, 1);
    for (const int v : {r.lo, r.hi}) {
      a.at(1, 4) = v;
      expect_exact(fn, a, b);
    }
    for (const int v : {r.lo - 1, r.hi + 1}) {
      a.at(1, 4) = v;
      EXPECT_THROW(fn(a, b), CheckError) << v;
    }
    a_pos.at(1, 4) = r.hi_unsigned;
    expect_exact(fn, a_pos, b_pos);
    a_pos.at(1, 4) = r.hi_unsigned + 1;
    EXPECT_THROW(fn(a_pos, b_pos), CheckError);
  }
}

TEST(ExecutorContract, ScalarRangeUncheckedWithoutIntColumns) {
  // N = 1 leaves IC+FC and TC+IC+FC no INT column (n1 = 0), so A's values
  // meet no packed layout.
  for (const Strategy s : {Strategy::kICFC, Strategy::kTCICFC}) {
    SCOPED_TRACE(strategy_name(s));
    ASSERT_EQ(executor_widths(s, 1).n1, 0);
    const auto fn = make_gemm_executor(s);
    MatrixI32 a(3, 8, 2), b(8, 1, -1);
    a.at(1, 4) = 300;
    expect_exact(fn, a, b);
    MatrixI32 a_pos(3, 8, 2), b_pos(8, 1, 1);
    a_pos.at(1, 4) = 600;
    expect_exact(fn, a_pos, b_pos);
  }
}

TEST(ExecutorContract, BOutsideLayoutRangeThrows) {
  // Every column of B is checked, not only the INT slice's: column 0 is an
  // INT column, column 14 a TC column (an FP column for IC+FC).
  for (const Strategy s : kSplitStrategies) {
    SCOPED_TRACE(strategy_name(s));
    const auto fn = make_gemm_executor(s);
    const auto r = int_slice_range(s);
    for (const int col : {0, 14}) {
      SCOPED_TRACE(col);
      MatrixI32 a(3, 8, 2), b(8, 15, -1), b_pos(8, 15, 1);
      for (const int v : {r.lo, r.hi}) {
        b.at(5, col) = v;
        expect_exact(fn, a, b);
      }
      for (const int v : {r.lo - 1, r.hi + 1}) {
        b.at(5, col) = v;
        EXPECT_THROW(fn(a, b), CheckError) << v;
      }
      b_pos.at(5, col) = r.hi_unsigned;
      expect_exact(fn, a, b_pos);
      b_pos.at(5, col) = r.hi_unsigned + 1;
      EXPECT_THROW(fn(a, b_pos), CheckError);
    }
  }
}

TEST(ExecutorContract, FpBoundThrowsAtTwoToThe24) {
  // max|a| * max|b| * K = 128 * 128 * K reaches 2^24 at K = 1024; only
  // executors with FP units check it. At N = 1 the split executors have no
  // INT column (n1 = 0), only FP ones.
  for (const int n : {15, 1}) {
    for (const Strategy s : kFpStrategies)
      ASSERT_GT(executor_widths(s, n).n2, 0);
    for (const int k : {1023, 1024}) {
      SCOPED_TRACE(::testing::Message() << "N=" << n << " K=" << k);
      const MatrixI32 a(2, k, -128), b(k, n, -128);
      for (const Strategy s : all_strategies()) {
        SCOPED_TRACE(strategy_name(s));
        const auto fn = make_gemm_executor(s);
        if (k == 1024 && uses_fp_cuda_cores(s))
          EXPECT_THROW(fn(a, b), CheckError);
        else
          expect_exact(fn, a, b);
      }
    }
  }
}

TEST(ExecutorContract, FpBoundCoversOnlyFpColumns) {
  // Large values in the INT and TC columns only: the bound over all of B
  // would be 2^24, over the FP columns 128 * 1 * 1024.
  const int k = 1024, n = 15;
  const MatrixI32 a(2, k, -128);
  for (const Strategy s : kFpStrategies) {
    SCOPED_TRACE(strategy_name(s));
    const auto w = executor_widths(s, n);
    ASSERT_GT(w.n2, 0);
    MatrixI32 b(k, n, -128);
    for (int r = 0; r < k; ++r)
      for (int c = w.n1; c < w.n1 + w.n2; ++c) b.at(r, c) = 1;
    expect_exact(make_gemm_executor(s), a, b);
    b.at(7, w.n1 + w.n2 - 1) = -128;
    EXPECT_THROW(make_gemm_executor(s)(a, b), CheckError);
    EXPECT_THROW(make_gemm_executor(Strategy::kFC)(a, b), CheckError)
        << "FC checks all of B";
  }
}

TEST(FpSlice, FloatGemmIsExactNearTheBound) {
  // The FP units' arithmetic: fp32 operands, exact while max|a| * max|b|
  // * K < 2^24. Row 0 of A and columns 0 and 1 of B are at the extremes,
  // so c(0, 0) and c(0, 1) are partial sums at 0.74 of 2^24.
  Rng rng(11);
  const int k = 768;
  MatrixI32 a(5, k), b(k, 9);
  fill_uniform(a, rng, -127, 127);
  fill_uniform(b, rng, -127, 127);
  for (int i = 0; i < k; ++i) {
    a.at(0, i) = 127;
    b.at(i, 0) = 127;
    b.at(i, 1) = -127;
  }
  ASSERT_GE(127.0 * 127.0 * k, 0.7 * 16777216.0);
  ASSERT_LT(127.0 * 127.0 * k, 16777216.0);
  const MatrixI32 ref = gemm_ref_int(a, b);
  for (const SimdLevel level : kAllLevels) {
    SCOPED_TRACE(simd_level_name(level));
    ScopedSimdLevel force(level);
    const MatrixF32 cf = gemm_f32(convert<float>(a), convert<float>(b));
    MatrixI32 c(cf.rows(), cf.cols());
    for (std::size_t i = 0; i < cf.size(); ++i)
      c.flat()[i] = static_cast<std::int32_t>(std::llround(cf.flat()[i]));
    EXPECT_EQ(c, ref);
    EXPECT_EQ(gemm_int(a, b), ref);
  }
}

TEST(Strategy, Table3Properties) {
  EXPECT_TRUE(uses_tensor_cores(Strategy::kTC));
  EXPECT_FALSE(uses_tensor_cores(Strategy::kICFC));
  EXPECT_TRUE(uses_packing(Strategy::kVitBit));
  EXPECT_FALSE(uses_packing(Strategy::kTCICFC));
  EXPECT_TRUE(uses_fp_cuda_cores(Strategy::kFC));
  EXPECT_FALSE(uses_fp_cuda_cores(Strategy::kTacker));
  EXPECT_EQ(all_strategies().size(), 7u);
  EXPECT_EQ(figure5_strategies().front(), Strategy::kTC);
  EXPECT_EQ(figure5_strategies().back(), Strategy::kVitBit);
}

TEST(Tuner, InitialStudyOrdering) {
  // The Section 3.2 ordering: TC < IC+FC+P < IC+FC < FC <= IC (approx).
  const trace::GemmShape shape{197, 768, 3072, 1};
  const auto study = run_initial_study(shape, kSpec, kCalib);
  EXPECT_LT(study.tc_cycles, study.icfcp_cycles);
  EXPECT_LT(study.icfcp_cycles, study.icfc_cycles);
  EXPECT_LT(study.icfc_cycles, study.ic_cycles);
  // Paper band: IC ~7.5x, IC+FC+P ~4x (we accept +-35%).
  EXPECT_NEAR(study.ratio_ic(), 7.5, 2.6);
  EXPECT_NEAR(study.ratio_icfcp(), 4.0, 1.4);
}

TEST(Tuner, DerivedMRatioNearPaper) {
  const trace::GemmShape shape{197, 768, 3072, 1};
  const auto study = run_initial_study(shape, kSpec, kCalib);
  const int m = derive_m_ratio(study);
  EXPECT_GE(m, 3);
  EXPECT_LE(m, 5);  // paper: 4
}

TEST(Tuner, FusedColsAreEq1Aligned) {
  const trace::GemmShape shape{197, 768, 768, 1};
  const int cols = tune_fused_cuda_cols(shape, 2, kSpec, kCalib);
  EXPECT_GT(cols, 0);
  EXPECT_EQ(cols % 3, 0);  // multiples of pack_factor+1
}

TEST(Pipeline, VitBitBeatsBaselinesOnViT) {
  // The headline orderings of Figure 5 on the full ViT-Base kernel log.
  const auto log = nn::build_kernel_log(nn::vit_base());
  StrategyConfig cfg;
  cfg.m_ratio = 4;
  cfg.fused_cuda_cols = 12;
  const auto tc = time_inference(log, Strategy::kTC, cfg, kSpec, kCalib);
  const auto tacker =
      time_inference(log, Strategy::kTacker, cfg, kSpec, kCalib);
  const auto tcicfc =
      time_inference(log, Strategy::kTCICFC, cfg, kSpec, kCalib);
  const auto vitbit =
      time_inference(log, Strategy::kVitBit, cfg, kSpec, kCalib);
  EXPECT_LT(vitbit.total_cycles, tcicfc.total_cycles);
  EXPECT_LT(tcicfc.total_cycles, tc.total_cycles);
  EXPECT_LT(tacker.total_cycles, tc.total_cycles);
  // Paper Figure 5: VitBit 1.22x over TC; accept a generous band.
  const double speedup = static_cast<double>(tc.total_cycles) /
                         static_cast<double>(vitbit.total_cycles);
  EXPECT_GT(speedup, 1.10);
  EXPECT_LT(speedup, 1.60);
}

TEST(Pipeline, InstructionCountDropsWithPacking) {
  // Figure 9: VitBit's packed kernels issue fewer instructions than IC+FC.
  const auto log = nn::build_kernel_log(nn::vit_base());
  StrategyConfig cfg;
  const auto icfc = time_inference(log, Strategy::kICFC, cfg, kSpec, kCalib);
  const auto vitbit =
      time_inference(log, Strategy::kVitBit, cfg, kSpec, kCalib);
  EXPECT_LT(vitbit.total_instructions, icfc.total_instructions);
}

TEST(Pipeline, DualPipeRaisesIpc) {
  // Figure 10: IC+FC IPC > IC IPC on the CUDA-core path.
  const auto log = nn::build_kernel_log(nn::vit_base());
  StrategyConfig cfg;
  const auto ic = time_inference(log, Strategy::kIC, cfg, kSpec, kCalib);
  const auto icfc = time_inference(log, Strategy::kICFC, cfg, kSpec, kCalib);
  EXPECT_GT(icfc.mean_ipc(), 1.15 * ic.mean_ipc());
}

TEST(Pipeline, KernelClassAccounting) {
  const auto log = nn::build_kernel_log(nn::vit_tiny());
  StrategyConfig cfg;
  const auto t = time_inference(log, Strategy::kTC, cfg, kSpec, kCalib);
  EXPECT_EQ(t.kernels.size(), log.calls().size());
  EXPECT_EQ(t.total_cycles, t.gemm_cycles + t.cuda_cycles);
  EXPECT_GT(t.gemm_cycles, 0u);
  EXPECT_GT(t.cuda_cycles, 0u);
}

TEST(Pipeline, CachedKernelsAreConsistent) {
  // 12 identical layers: every layerN.fc1 must time identically.
  const auto log = nn::build_kernel_log(nn::vit_base());
  StrategyConfig cfg;
  const auto t = time_inference(log, Strategy::kVitBit, cfg, kSpec, kCalib);
  std::uint64_t fc1 = 0;
  for (const auto& k : t.kernels) {
    if (k.name.find(".fc1") == std::string::npos) continue;
    if (fc1 == 0)
      fc1 = k.cycles;
    else
      EXPECT_EQ(k.cycles, fc1) << k.name;
  }
  EXPECT_GT(fc1, 0u);
}

}  // namespace
}  // namespace vitbit::core
