#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/mixer.h"
#include "tensor/gemm_ref.h"
#include "vitbit/executors.h"
#include "vitbit/pipeline.h"

namespace vitbit::nn {
namespace {

MatrixF32 random_patches(const MixerConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF32 p(cfg.num_patches(), cfg.patch_dim());
  for (auto& v : p.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return p;
}

TEST(Mixer, ConfigValidates) {
  EXPECT_NO_THROW(mixer_small().validate());
  EXPECT_NO_THROW(mixer_tiny().validate());
  MixerConfig bad;
  bad.patch_size = 15;
  EXPECT_THROW(bad.validate(), CheckError);
}

TEST(Mixer, ForwardProducesLogits) {
  const auto cfg = mixer_tiny();
  const auto model = random_mixer(cfg, 1);
  const auto logits = model.forward(random_patches(cfg, 2), reference_gemm());
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), cfg.num_classes);
}

TEST(Mixer, AllStrategiesBitIdentical) {
  const auto cfg = mixer_tiny();
  const auto model = random_mixer(cfg, 3);
  const auto patches = random_patches(cfg, 4);
  const auto baseline = model.forward(patches, reference_gemm());
  for (const auto s : core::all_strategies()) {
    const auto logits = model.forward(patches, core::make_gemm_executor(s));
    EXPECT_EQ(max_abs_diff(logits, baseline), 0.0) << core::strategy_name(s);
  }
}

TEST(Mixer, KernelLogMatchesStaticWalk) {
  const auto cfg = mixer_tiny();
  const auto model = random_mixer(cfg, 5);
  KernelLog dynamic;
  model.forward(random_patches(cfg, 6), reference_gemm(), &dynamic);
  const auto walk = build_mixer_kernel_log(cfg);
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

TEST(Mixer, SmallConfigScale) {
  const auto log = build_mixer_kernel_log(mixer_small());
  // 8 layers x 4 GEMMs + embed + head.
  EXPECT_EQ(log.count(KernelKind::kGemm), 34u);
  EXPECT_GT(log.total_macs(), std::int64_t{1} << 31);
}

TEST(Mixer, PipelineOrderingHolds) {
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  const auto log = build_mixer_kernel_log(mixer_small());
  core::StrategyConfig cfg;
  const auto tc = core::time_inference(log, core::Strategy::kTC, cfg, spec,
                                       calib);
  const auto vb = core::time_inference(log, core::Strategy::kVitBit, cfg,
                                       spec, calib);
  EXPECT_LT(vb.total_cycles, tc.total_cycles);
}

TEST(Mixer, TcLogitsArePinned) {
  const auto cfg = mixer_tiny();
  const auto model = random_mixer(cfg, 7);
  const auto logits = model.forward(
      random_patches(cfg, 8), core::make_gemm_executor(core::Strategy::kTC));
  const std::vector<std::int64_t> want = {
      554, -918, 1787, 1489, -613, -551, 1014, 859, -88, 1496};
  std::vector<std::int64_t> got;
  for (const float v : logits.flat())
    got.push_back(static_cast<std::int64_t>(std::ldexp(
        static_cast<double>(v), model.act_frac_bits + model.head.w_frac_bits)));
  EXPECT_EQ(got, want);
}

TEST(Mixer, HeadBiasSumNearInt32MaxIsExact) {
  // Every accumulator within 64 of INT32_MAX: the head's bias sums must be
  // int64 (an int32 sum overflows), and the layers saturate.
  const auto cfg = mixer_tiny();
  const auto model = random_mixer(cfg, 7);
  const GemmFn near_max = [](const MatrixI32& a, const MatrixI32& b) {
    return MatrixI32(a.rows(), b.cols(), INT32_MAX - 10);
  };
  const auto logits = model.forward(random_patches(cfg, 8), near_max);
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
