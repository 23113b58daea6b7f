#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/cnn.h"
#include "tensor/gemm_ref.h"
#include "vitbit/executors.h"

namespace vitbit::nn {
namespace {

MatrixF32 random_image(const CnnConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF32 img(cfg.channels * cfg.image_size, cfg.image_size);
  for (auto& v : img.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return img;
}

TEST(CnnConfig, SpatialBookkeeping) {
  const auto cfg = cnn_small();  // 32 -> pool 16 -> pool 8 -> pool 4
  EXPECT_EQ(cfg.spatial_after(0), 16);
  EXPECT_EQ(cfg.spatial_after(1), 8);
  EXPECT_EQ(cfg.spatial_after(2), 4);
  EXPECT_EQ(cfg.features_before_head(), 64 * 4 * 4);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(CnnConfig, ValidateRejectsOverDownsampling) {
  CnnConfig c;
  c.image_size = 8;
  c.convs = {{8, 3, 2, true}, {8, 3, 2, true}, {8, 3, 2, true}};
  EXPECT_THROW(c.validate(), CheckError);
}

TEST(Im2col, IdentityKernelExtractsPixels) {
  // 1x1 kernel, stride 1: im2col is just a channel-major pixel list.
  MatrixI32 img(2 * 4, 4);
  Rng rng(1);
  fill_uniform(img, rng, -10, 10);
  const auto cols = im2col(img, 2, 4, 1, 1);
  EXPECT_EQ(cols.rows(), 16);
  EXPECT_EQ(cols.cols(), 2);
  EXPECT_EQ(cols.at(5, 0), img.at(0 * 4 + 1, 1));  // pixel (1,1), channel 0
  EXPECT_EQ(cols.at(5, 1), img.at(1 * 4 + 1, 1));
}

TEST(Im2col, ZeroPadsBorders) {
  MatrixI32 img(1 * 3, 3, 7);
  const auto cols = im2col(img, 1, 3, 3, 1);
  EXPECT_EQ(cols.rows(), 9);
  EXPECT_EQ(cols.cols(), 9);
  // Top-left output pixel: the (ky=0,kx=0) tap is out of bounds -> 0.
  EXPECT_EQ(cols.at(0, 0), 0);
  // Its center tap is the image corner.
  EXPECT_EQ(cols.at(0, 4), 7);
}

TEST(Im2col, StrideTwoHalvesOutput) {
  MatrixI32 img(1 * 8, 8, 1);
  const auto cols = im2col(img, 1, 8, 3, 2);
  EXPECT_EQ(cols.rows(), 4 * 4);
}

TEST(Im2col, ConvViaGemmMatchesDirectConvolution) {
  // Direct 3x3 convolution vs im2col + GEMM on a small case.
  Rng rng(2);
  const int size = 6, cin = 2, cout = 3, k = 3;
  MatrixI32 img(cin * size, size);
  fill_uniform(img, rng, -10, 10);
  MatrixI32 w(cin * k * k, cout);
  fill_uniform(w, rng, -5, 5);
  const auto y = gemm_ref_int(im2col(img, cin, size, k, 1), w);
  for (int oy = 0; oy < size; ++oy)
    for (int ox = 0; ox < size; ++ox)
      for (int oc = 0; oc < cout; ++oc) {
        std::int64_t acc = 0;
        for (int c = 0; c < cin; ++c)
          for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx) {
              const int iy = oy + ky - 1, ix = ox + kx - 1;
              if (iy < 0 || iy >= size || ix < 0 || ix >= size) continue;
              acc += std::int64_t{img.at(c * size + iy, ix)} *
                     w.at((c * k + ky) * k + kx, oc);
            }
        ASSERT_EQ(y.at(oy * size + ox, oc), acc)
            << oy << "," << ox << "," << oc;
      }
}

TEST(CnnModel, ForwardProducesLogits) {
  const auto cfg = cnn_small();
  const auto model = random_cnn(cfg, 3);
  const auto img = random_image(cfg, 4);
  const auto logits = model.forward(img, reference_gemm());
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), cfg.num_classes);
}

TEST(CnnModel, AllStrategiesBitIdentical) {
  const auto cfg = cnn_small();
  const auto model = random_cnn(cfg, 5);
  const auto img = random_image(cfg, 6);
  const auto baseline = model.forward(img, reference_gemm());
  for (const auto s : core::all_strategies()) {
    const auto logits = model.forward(img, core::make_gemm_executor(s));
    EXPECT_EQ(max_abs_diff(logits, baseline), 0.0) << core::strategy_name(s);
  }
}

TEST(CnnModel, KernelLogMatchesStaticWalk) {
  const auto cfg = cnn_small();
  const auto model = random_cnn(cfg, 7);
  const auto img = random_image(cfg, 8);
  KernelLog dynamic;
  model.forward(img, reference_gemm(), &dynamic);
  const auto walk = build_cnn_kernel_log(cfg);
  ASSERT_EQ(dynamic.calls().size(), walk.calls().size());
  for (std::size_t i = 0; i < walk.calls().size(); ++i) {
    EXPECT_EQ(dynamic.calls()[i].name, walk.calls()[i].name);
    EXPECT_EQ(dynamic.calls()[i].m, walk.calls()[i].m) << walk.calls()[i].name;
    EXPECT_EQ(dynamic.calls()[i].k, walk.calls()[i].k) << walk.calls()[i].name;
    EXPECT_EQ(dynamic.calls()[i].n, walk.calls()[i].n) << walk.calls()[i].name;
    EXPECT_EQ(dynamic.calls()[i].elems, walk.calls()[i].elems)
        << walk.calls()[i].name;
  }
}

TEST(CnnModel, Int4VariantStaysExact) {
  const auto cfg = cnn_small();
  const auto model = random_cnn(cfg, 9, /*act_bits=*/4, /*weight_bits=*/4);
  const auto img = random_image(cfg, 10);
  const auto baseline = model.forward(img, reference_gemm());
  core::ExecutorConfig ec;
  ec.bitwidth = 4;
  const auto vb = model.forward(
      img, core::make_gemm_executor(core::Strategy::kVitBit, ec));
  EXPECT_EQ(max_abs_diff(vb, baseline), 0.0)
      << "INT4 packed execution changed the result";
}

TEST(CnnKernelLog, EdgeConfigShapes) {
  const auto log = build_cnn_kernel_log(cnn_edge());
  // 8 convs + head GEMMs; relu per conv; pools per pooled conv.
  EXPECT_EQ(log.count(KernelKind::kGemm), 9u);
  EXPECT_EQ(log.count(KernelKind::kRelu), 8u);
  EXPECT_EQ(log.count(KernelKind::kPool), 4u);
  EXPECT_GT(log.total_macs(), std::int64_t{1} << 30);
}

TEST(CnnModel, TcLogitsArePinned) {
  const auto cfg = cnn_small();
  const auto model = random_cnn(cfg, 11);
  const auto logits = model.forward(
      random_image(cfg, 12), core::make_gemm_executor(core::Strategy::kTC));
  const std::vector<std::int64_t> want = {
      16020, 15007, -2345, 46649, -12692, 19167, 8573, 17371, 768, 28346};
  std::vector<std::int64_t> got;
  for (const float v : logits.flat())
    got.push_back(static_cast<std::int64_t>(std::ldexp(
        static_cast<double>(v), model.act_frac_bits + model.head.w_frac_bits)));
  EXPECT_EQ(got, want);
}

TEST(CnnModel, HeadBiasSumNearInt32MaxIsExact) {
  // Every accumulator within 64 of INT32_MAX: the head's bias sums must be
  // int64 (an int32 sum overflows), and the layers saturate.
  const auto cfg = cnn_small();
  const auto model = random_cnn(cfg, 11);
  const GemmFn near_max = [](const MatrixI32& a, const MatrixI32& b) {
    return MatrixI32(a.rows(), b.cols(), INT32_MAX - 10);
  };
  const auto logits = model.forward(random_image(cfg, 12), near_max);
  const double s =
      std::ldexp(1.0, -(model.act_frac_bits + model.head.w_frac_bits));
  for (int c = 0; c < cfg.num_classes; ++c)
    EXPECT_EQ(logits.at(0, c),
              static_cast<float>((std::int64_t{INT32_MAX} - 10 +
                                  model.head.bias[static_cast<std::size_t>(c)]) *
                                 s))
        << c;
}

}  // namespace
}  // namespace vitbit::nn
