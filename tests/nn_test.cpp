#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "epilogue_oracles.h"
#include "nn/vit_model.h"
#include "quant/fixed_point.h"
#include "tensor/gemm_ref.h"
#include "swar/packed_gemm.h"
#include "vitbit/executors.h"

namespace vitbit::nn {
namespace {

MatrixF32 random_patches(const VitConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF32 p(cfg.num_patches(), cfg.patch_dim());
  for (auto& v : p.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return p;
}

TEST(VitConfig, BaseMatchesPaperWorkload) {
  const auto cfg = vit_base();
  EXPECT_EQ(cfg.seq_len(), 197);
  EXPECT_EQ(cfg.hidden_dim, 768);
  EXPECT_EQ(cfg.num_layers, 12);
  EXPECT_EQ(cfg.head_dim(), 64);
  EXPECT_EQ(cfg.patch_dim(), 768);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(VitConfig, ValidateRejectsBadShapes) {
  VitConfig c = vit_base();
  c.patch_size = 15;  // 224 % 15 != 0
  EXPECT_THROW(c.validate(), CheckError);
  c = vit_base();
  c.num_heads = 7;  // 768 % 7 != 0
  EXPECT_THROW(c.validate(), CheckError);
}

TEST(KernelLog, Aggregates) {
  KernelLog log;
  log.add({KernelKind::kGemm, "g", 2, 3, 4, 2, 0});
  log.add({KernelKind::kGelu, "e", 0, 0, 0, 1, 100});
  EXPECT_EQ(log.total_macs(), 48);
  EXPECT_EQ(log.total_elementwise(), 100);
  EXPECT_EQ(log.count(KernelKind::kGemm), 1u);
  EXPECT_EQ(log.count(KernelKind::kGelu), 1u);
  EXPECT_TRUE(is_tensor_core_kernel(KernelKind::kGemm));
  EXPECT_FALSE(is_tensor_core_kernel(KernelKind::kSoftmax));
}

TEST(QuantLinear, ForwardMatchesManualComputation) {
  Rng rng(1);
  const auto l = random_linear(rng, 8, 4);
  quant::QTensor x;
  x.frac_bits = 4;
  x.q = MatrixI32(2, 8);
  fill_uniform(x.q, rng, -100, 100);
  const auto y = l.forward(x, 4, reference_gemm(), nullptr, "t");
  // Manual: acc = x*W + b, requantized by shift w_frac_bits (4+6-4=6).
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 4; ++c) {
      std::int64_t acc = l.bias[static_cast<std::size_t>(c)];
      for (int k = 0; k < 8; ++k)
        acc += std::int64_t{x.q.at(r, k)} * l.weight.at(k, c);
      const auto want =
          clamp_signed(quant::rounding_shift(acc, 6), 8);
      EXPECT_EQ(y.q.at(r, c), want);
    }
}

TEST(QuantLinear, ShapeMismatchThrows) {
  Rng rng(2);
  const auto l = random_linear(rng, 8, 4);
  quant::QTensor x;
  x.q = MatrixI32(2, 9);
  EXPECT_THROW(l.forward(x, 4, reference_gemm(), nullptr, "t"), CheckError);
}

TEST(Attention, PreservesShapeAndScale) {
  Rng rng(3);
  const auto cfg = vit_tiny();
  const auto attn = random_attention(rng, cfg);
  quant::QTensor x;
  x.frac_bits = 4;
  x.q = MatrixI32(cfg.seq_len(), cfg.hidden_dim);
  fill_uniform(x.q, rng, -127, 127);
  const auto y = attn.forward(x, reference_gemm(), nullptr, "a");
  EXPECT_EQ(y.rows(), cfg.seq_len());
  EXPECT_EQ(y.cols(), cfg.hidden_dim);
  EXPECT_EQ(y.frac_bits, x.frac_bits);
  for (const auto v : y.q.flat()) {
    EXPECT_GE(v, -128);
    EXPECT_LE(v, 127);
  }
}

TEST(Attention, RequiresPowerOfTwoHeadDim) {
  Rng rng(4);
  VitConfig cfg = vit_tiny();
  cfg.hidden_dim = 96;  // head_dim 48: not a power of two
  cfg.mlp_dim = 96;
  const auto attn = random_attention(rng, cfg);
  quant::QTensor x;
  x.frac_bits = 4;
  x.q = MatrixI32(4, cfg.hidden_dim);
  EXPECT_THROW(attn.forward(x, reference_gemm(), nullptr, "a"), CheckError);
}

TEST(Encoder, ResidualAddSaturates) {
  quant::QTensor a, b;
  a.frac_bits = b.frac_bits = 4;
  a.q = MatrixI32(1, 2);
  b.q = MatrixI32(1, 2);
  a.q.at(0, 0) = 120;
  b.q.at(0, 0) = 120;
  a.q.at(0, 1) = -100;
  b.q.at(0, 1) = -100;
  const auto c = residual_add(a, b, nullptr, "add");
  EXPECT_EQ(c.q.at(0, 0), 127);
  EXPECT_EQ(c.q.at(0, 1), -128);
}

TEST(Encoder, ScaleMismatchThrows) {
  quant::QTensor a, b;
  a.frac_bits = 4;
  b.frac_bits = 5;
  a.q = MatrixI32(1, 1);
  b.q = MatrixI32(1, 1);
  EXPECT_THROW(residual_add(a, b, nullptr, "add"), CheckError);
}

TEST(VitModel, ForwardProducesLogits) {
  const auto cfg = vit_tiny();
  const auto model = random_vit(cfg, 42);
  const auto patches = random_patches(cfg, 7);
  const auto logits = model.forward(patches, reference_gemm());
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), cfg.num_classes);
}

TEST(VitModel, DeterministicAcrossRuns) {
  const auto cfg = vit_tiny();
  const auto model = random_vit(cfg, 42);
  const auto patches = random_patches(cfg, 7);
  const auto l1 = model.forward(patches, reference_gemm());
  const auto l2 = model.forward(patches, reference_gemm());
  EXPECT_EQ(max_abs_diff(l1, l2), 0.0);
}

TEST(VitModel, IntegerPathTracksFloatReference) {
  // The integer-only path approximates the fp32 graph; logits should agree
  // closely relative to their spread (quantization noise only).
  const auto cfg = vit_tiny();
  const auto model = random_vit(cfg, 11);
  const auto patches = random_patches(cfg, 13);
  const auto qi = model.forward(patches, reference_gemm());
  const auto qf = model.forward_f32(patches);
  // Pearson correlation between the two logit vectors: quantization noise
  // (int8 activations, saturating residuals) perturbs values but must
  // preserve the overall logit structure.
  double mi = 0, mf = 0;
  const int n = cfg.num_classes;
  for (int c = 0; c < n; ++c) {
    mi += qi.at(0, c);
    mf += qf.at(0, c);
  }
  mi /= n;
  mf /= n;
  double num = 0, di = 0, df = 0;
  for (int c = 0; c < n; ++c) {
    const double a = qi.at(0, c) - mi, b = qf.at(0, c) - mf;
    num += a * b;
    di += a * a;
    df += b * b;
  }
  ASSERT_GT(di, 0);
  ASSERT_GT(df, 0);
  EXPECT_GT(num / std::sqrt(di * df), 0.90)
      << "integer path diverged from fp32 reference";
  // Rank correlation on the top class: argmax usually agrees; require the
  // int path's top-1 to be within the float path's top-3.
  const auto& row_i = qi.row(0);
  const int top_i = static_cast<int>(
      std::max_element(row_i.begin(), row_i.end()) - row_i.begin());
  std::vector<int> order(static_cast<std::size_t>(cfg.num_classes));
  for (int i = 0; i < cfg.num_classes; ++i)
    order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return qf.at(0, a) > qf.at(0, b);
  });
  EXPECT_TRUE(top_i == order[0] || top_i == order[1] || top_i == order[2]);
}

TEST(VitModel, PackedGemmProducesIdenticalLogits) {
  // The paper's accuracy claim: packing must not change inference results.
  const auto cfg = vit_tiny();
  const auto model = random_vit(cfg, 21);
  const auto patches = random_patches(cfg, 23);
  const auto baseline = model.forward(patches, reference_gemm());
  const auto layout = swar::paper_policy_layout(8, swar::LaneMode::kTopSigned);
  GemmFn packed = [&](const MatrixI32& a, const MatrixI32& b) {
    return swar::gemm_packed(a, b, layout);
  };
  const auto packed_logits = model.forward(patches, packed);
  EXPECT_EQ(max_abs_diff(baseline, packed_logits), 0.0)
      << "packed GEMM changed the inference result";
}

TEST(VitModel, KernelLogMatchesStaticShapeWalk) {
  // build_kernel_log must stay in lockstep with what forward() records.
  const auto cfg = vit_tiny();
  const auto model = random_vit(cfg, 5);
  const auto patches = random_patches(cfg, 5);
  KernelLog dynamic;
  model.forward(patches, reference_gemm(), &dynamic);
  const auto static_log = build_kernel_log(cfg);
  ASSERT_EQ(dynamic.calls().size(), static_log.calls().size());
  for (std::size_t i = 0; i < dynamic.calls().size(); ++i) {
    const auto& d = dynamic.calls()[i];
    const auto& s = static_log.calls()[i];
    EXPECT_EQ(d.name, s.name) << i;
    EXPECT_EQ(static_cast<int>(d.kind), static_cast<int>(s.kind)) << d.name;
    EXPECT_EQ(d.m, s.m) << d.name;
    EXPECT_EQ(d.k, s.k) << d.name;
    EXPECT_EQ(d.n, s.n) << d.name;
    EXPECT_EQ(d.batch, s.batch) << d.name;
    EXPECT_EQ(d.elems, s.elems) << d.name;
  }
}

TEST(VitModel, VitBaseKernelLogTotals) {
  const auto log = build_kernel_log(vit_base());
  // 12 layers x 6 GEMMs + patch embed + head = 74 GEMM launches.
  EXPECT_EQ(log.count(KernelKind::kGemm), 74u);
  EXPECT_EQ(log.count(KernelKind::kSoftmax), 12u);
  EXPECT_EQ(log.count(KernelKind::kGelu), 12u);
  EXPECT_EQ(log.count(KernelKind::kLayerNorm), 25u);
  // ViT-Base is ~17.2 GMACs (published FLOPs / 2, excluding head).
  EXPECT_NEAR(static_cast<double>(log.total_macs()), 17.2e9, 1.0e9);
}

TEST(ExtractPatches, LaysOutPatchesRowMajor) {
  VitConfig cfg = vit_tiny();  // 32x32 image, 8x8 patches, 3 channels
  MatrixF32 img(cfg.channels * cfg.image_size, cfg.image_size);
  Rng rng(6);
  for (auto& v : img.flat()) v = static_cast<float>(rng.uniform());
  const auto patches = extract_patches(img, cfg);
  EXPECT_EQ(patches.rows(), cfg.num_patches());
  EXPECT_EQ(patches.cols(), cfg.patch_dim());
  // Spot-check: patch (1,2), pixel (3,4), channel 1.
  const int grid = cfg.image_size / cfg.patch_size;
  const float want = img.at(1 * cfg.image_size + 1 * cfg.patch_size + 3,
                            2 * cfg.patch_size + 4);
  EXPECT_FLOAT_EQ(
      patches.at(1 * grid + 2, (3 * cfg.patch_size + 4) * cfg.channels + 1),
      want);
}

// ---------------------------------------------------------------------------
// Bit identity of the layer glue against the scalar oracles
// (tests/epilogue_oracles.h), and the TC logits of a seeded forward.

// int32s of every magnitude plus the extremes and zero.
MatrixI32 wide_values(Rng& rng, int rows, int cols) {
  MatrixI32 m(rows, cols);
  for (auto& v : m.flat()) {
    const int mag = static_cast<int>(rng.range(0, 31));
    v = static_cast<std::int32_t>(
        rng.range(-(std::int64_t{1} << mag), (std::int64_t{1} << mag) - 1));
  }
  m.flat()[0] = INT32_MIN;
  m.flat()[1] = INT32_MAX;
  m.flat()[2] = 0;
  return m;
}

TEST(EpilogueOracle, ResidualAddMatches) {
  Rng rng(61);
  quant::QTensor a, b;
  a.frac_bits = b.frac_bits = 4;
  a.q = wide_values(rng, 9, 31);
  b.q = wide_values(rng, 9, 31);
  b.q.flat()[3] = INT32_MAX;  // pairs that overflow int32 both ways
  a.q.flat()[3] = INT32_MAX;
  a.q.flat()[4] = INT32_MIN;
  b.q.flat()[4] = INT32_MIN;
  for (const int act_bits : {2, 3, 4, 8, 16, 31, 32}) {
    EXPECT_EQ(residual_add(a, b, nullptr, "add", act_bits).q,
              oracle::residual_add_oracle(a.q, b.q, act_bits))
        << act_bits;
    // Activations already act_bits wide, the forward's case.
    quant::QTensor na = a, nb = b;
    for (auto& v : na.q.flat())
      v = static_cast<std::int32_t>(clamp_signed(v, act_bits));
    for (auto& v : nb.q.flat())
      v = static_cast<std::int32_t>(clamp_signed(v, act_bits));
    EXPECT_EQ(residual_add(na, nb, nullptr, "add", act_bits).q,
              oracle::residual_add_oracle(na.q, nb.q, act_bits))
        << act_bits;
  }
}

TEST(EpilogueOracle, LayerNormMatches) {
  Rng rng(62);
  for (const int act_bits : {3, 4, 8, 16, 31})
    for (const int frac_bits : {0, 4, 5, 12, 20}) {
      quant::QTensor x;
      x.frac_bits = frac_bits;
      x.q = MatrixI32(7, 96);
      const std::int64_t hi = signed_max(std::min(act_bits, 24));
      fill_uniform(x.q, rng, -hi - 1, hi);
      for (int c = 0; c < x.cols(); ++c) x.q.at(6, c) = 3;  // a constant row
      EXPECT_EQ(layer_norm(x, nullptr, "ln", act_bits).q,
                oracle::layer_norm_oracle(x.q, frac_bits, act_bits))
          << act_bits << " bits, fb " << frac_bits;
    }
}

TEST(EpilogueOracle, QuantLinearMatches) {
  // acc = x * W + bias in int64, then the requantize oracle, at shifts
  // from 8 left to 30 right and every output width.
  Rng rng(63);
  const auto l = random_linear(rng, 24, 40);
  quant::QTensor x;
  x.frac_bits = 4;
  x.q = MatrixI32(5, 24);
  fill_uniform(x.q, rng, -128, 127);
  MatrixI32 acc = gemm_ref_int(x.q, l.weight);
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c)
      acc.at(r, c) += l.bias[static_cast<std::size_t>(c)];
  const int in_fb = x.frac_bits + l.w_frac_bits;
  for (int out_fb = in_fb - 30; out_fb <= in_fb + 8; ++out_fb)
    for (const int bits : {2, 4, 8, 16, 31})
      EXPECT_EQ(l.forward(x, out_fb, reference_gemm(), nullptr, "t", bits).q,
                oracle::requantize_oracle(acc, in_fb, out_fb, bits))
          << "out_fb " << out_fb << " bits " << bits;
}

// A GEMM whose every accumulator lies within 64 of INT32_MAX: adding a
// bias in int32 would overflow (undefined behaviour), so the sums must be
// int64.
MatrixI32 near_int32_max(const MatrixI32& a, const MatrixI32& b) {
  return MatrixI32(a.rows(), b.cols(), INT32_MAX - 10);
}

TEST(QuantLinear, BiasSumNearInt32MaxSaturates) {
  Rng rng(64);
  const auto l = random_linear(rng, 8, 16);  // biases in [-64, 64]
  ASSERT_GT(*std::max_element(l.bias.begin(), l.bias.end()), 10);
  quant::QTensor x;
  x.frac_bits = 4;
  x.q = MatrixI32(3, 8);
  for (const int bits : {4, 8}) {
    const auto y = l.forward(x, 4, near_int32_max, nullptr, "t", bits);
    for (const auto v : y.q.flat()) EXPECT_EQ(v, signed_max(bits)) << bits;
  }
}

TEST(VitModel, HeadBiasSumNearInt32MaxIsExact) {
  const auto cfg = vit_tiny();
  const auto model = random_vit(cfg, 42);
  const auto logits = model.forward(random_patches(cfg, 7), near_int32_max);
  const double s =
      std::ldexp(1.0, -(model.act_frac_bits + model.head.w_frac_bits));
  for (int c = 0; c < cfg.num_classes; ++c)
    EXPECT_EQ(logits.at(0, c),
              static_cast<float>((std::int64_t{INT32_MAX} - 10 +
                                  model.head.bias[static_cast<std::size_t>(c)]) *
                                 s))
        << c;
}

// logits * 2^frac_bits: the head's accumulators, exact in float.
std::vector<std::int64_t> logit_accumulators(const MatrixF32& logits,
                                             int frac_bits) {
  std::vector<std::int64_t> out;
  for (const float v : logits.flat())
    out.push_back(static_cast<std::int64_t>(
        std::ldexp(static_cast<double>(v), frac_bits)));
  return out;
}

TEST(VitModel, TcLogitsArePinned) {
  const auto cfg = vit_tiny();
  const auto model = random_vit(cfg, 42);
  const auto logits = model.forward(
      random_patches(cfg, 7), core::make_gemm_executor(core::Strategy::kTC));
  const std::vector<std::int64_t> want = {
      1048, 102, -326, -676, 1245, 281, -1019, 1465, -1593, -1801};
  EXPECT_EQ(logit_accumulators(
                logits, model.act_frac_bits + model.head.w_frac_bits),
            want);
}

}  // namespace
}  // namespace vitbit::nn
