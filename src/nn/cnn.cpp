#include "nn/cnn.h"

#include <algorithm>

#include "common/int_math.h"
#include "quant/qtensor.h"

namespace vitbit::nn {

namespace {
int conv_out_size(int size, int kernel, int stride) {
  const int pad = kernel / 2;  // "same" padding
  return (size + 2 * pad - kernel) / stride + 1;
}
}  // namespace

void CnnConfig::validate() const {
  VITBIT_CHECK(image_size >= 8);
  VITBIT_CHECK(!convs.empty());
  for (const auto& c : convs) {
    VITBIT_CHECK(c.out_channels >= 1);
    VITBIT_CHECK(c.kernel % 2 == 1);
    VITBIT_CHECK(c.stride == 1 || c.stride == 2);
  }
  VITBIT_CHECK_MSG(spatial_after(static_cast<int>(convs.size()) - 1) >= 1,
                   "network downsamples below 1x1");
}

int CnnConfig::spatial_after(int i) const {
  int s = image_size;
  for (int l = 0; l <= i; ++l) {
    s = conv_out_size(s, convs[static_cast<std::size_t>(l)].kernel,
                      convs[static_cast<std::size_t>(l)].stride);
    if (convs[static_cast<std::size_t>(l)].pool_after) s /= 2;
  }
  return s;
}

int CnnConfig::features_before_head() const {
  const int last = static_cast<int>(convs.size()) - 1;
  return convs[static_cast<std::size_t>(last)].out_channels *
         spatial_after(last) * spatial_after(last);
}

CnnConfig cnn_small() {
  CnnConfig c;
  c.image_size = 32;
  c.convs = {{16, 3, 1, true}, {32, 3, 1, true}, {64, 3, 1, true}};
  c.num_classes = 10;
  return c;
}

CnnConfig cnn_edge() {
  CnnConfig c;
  c.image_size = 224;
  c.convs = {{32, 3, 2, false},  {64, 3, 1, true},   {128, 3, 1, false},
             {128, 3, 1, true},  {256, 3, 1, false}, {256, 3, 1, true},
             {512, 3, 1, false}, {512, 3, 1, true}};
  c.num_classes = 1000;
  return c;
}

MatrixI32 im2col(const MatrixI32& input_chw, int channels, int size,
                 int kernel, int stride) {
  VITBIT_CHECK(input_chw.rows() == channels * size);
  VITBIT_CHECK(input_chw.cols() == size);
  const int pad = kernel / 2;
  const int out = conv_out_size(size, kernel, stride);
  MatrixI32 cols(out * out, channels * kernel * kernel);
  for (int oy = 0; oy < out; ++oy) {
    for (int ox = 0; ox < out; ++ox) {
      const int row = oy * out + ox;
      for (int c = 0; c < channels; ++c) {
        for (int ky = 0; ky < kernel; ++ky) {
          for (int kx = 0; kx < kernel; ++kx) {
            const int iy = oy * stride + ky - pad;
            const int ix = ox * stride + kx - pad;
            std::int32_t v = 0;
            if (iy >= 0 && iy < size && ix >= 0 && ix < size)
              v = input_chw.at(c * size + iy, ix);
            cols.at(row, (c * kernel + ky) * kernel + kx) = v;
          }
        }
      }
    }
  }
  return cols;
}

MatrixF32 CnnModel::forward(const MatrixF32& image_chw, const GemmFn& gemm,
                            KernelLog* log) const {
  cfg.validate();
  const auto q0 = quant::quantize(image_chw, act_frac_bits, act_bits);
  MatrixI32 x = q0.q;  // (channels*size) x size
  int channels = cfg.channels;
  int size = cfg.image_size;

  for (std::size_t i = 0; i < convs.size(); ++i) {
    const auto& conv = convs[i];
    const std::string name = "conv" + std::to_string(i);
    const int out = conv_out_size(size, conv.spec.kernel, conv.spec.stride);

    quant::QTensor patches;
    patches.frac_bits = act_frac_bits;
    patches.q = im2col(x, channels, size, conv.spec.kernel, conv.spec.stride);
    const auto y = conv.weights.forward(patches, act_frac_bits, gemm, log,
                                        name, act_bits);

    // ReLU, then reshape (pixels x out_ch) into channel-stacked planes.
    MatrixI32 planes(conv.spec.out_channels * out, out);
    for (int p = 0; p < out * out; ++p)
      for (int c = 0; c < conv.spec.out_channels; ++c)
        planes.at(c * out + p / out, p % out) = std::max(0, y.q.at(p, c));
    if (log)
      log->add({KernelKind::kRelu, name + ".relu", 0, 0, 0, 1,
                static_cast<std::int64_t>(out) * out * conv.spec.out_channels});

    size = out;
    channels = conv.spec.out_channels;
    if (conv.spec.pool_after) {
      const int half = size / 2;
      MatrixI32 pooled(channels * half, half);
      for (int c = 0; c < channels; ++c)
        for (int py = 0; py < half; ++py)
          for (int px = 0; px < half; ++px) {
            std::int32_t m = INT32_MIN;
            for (int dy = 0; dy < 2; ++dy)
              for (int dx = 0; dx < 2; ++dx)
                m = std::max(m, planes.at(c * size + 2 * py + dy, 2 * px + dx));
            pooled.at(c * half + py, px) = m;
          }
      if (log)
        log->add({KernelKind::kPool, name + ".pool", 0, 0, 0, 1,
                  static_cast<std::int64_t>(channels) * half * half});
      planes = std::move(pooled);
      size = half;
    }
    x = std::move(planes);
  }

  // Flatten and classify.
  quant::QTensor feat;
  feat.frac_bits = act_frac_bits;
  feat.q = MatrixI32(1, cfg.features_before_head());
  int idx = 0;
  for (int c = 0; c < channels; ++c)
    for (int y = 0; y < size; ++y)
      for (int xx = 0; xx < size; ++xx)
        feat.q.at(0, idx++) = x.at(c * size + y, xx);
  const MatrixI32 acc = gemm(feat.q, head.weight);
  if (log)
    log->add({KernelKind::kGemm, "head", 1, feat.q.cols(), cfg.num_classes, 1,
              0});
  return head_logits(acc, head, act_frac_bits);
}

CnnModel random_cnn(const CnnConfig& cfg, std::uint64_t seed, int act_bits,
                    int weight_bits) {
  cfg.validate();
  Rng rng(seed);
  CnnModel m;
  m.cfg = cfg;
  m.act_bits = act_bits;
  const double w_sigma =
      std::max(1.0, static_cast<double>(signed_max(weight_bits)) / 9.0);
  int in_ch = cfg.channels;
  for (const auto& spec : cfg.convs) {
    QuantConv conv;
    conv.spec = spec;
    conv.in_channels = in_ch;
    conv.weights = random_linear(rng, in_ch * spec.kernel * spec.kernel,
                                 spec.out_channels, 6, w_sigma);
    for (auto& v : conv.weights.weight.flat())
      v = static_cast<std::int32_t>(clamp_signed(v, weight_bits));
    m.convs.push_back(std::move(conv));
    in_ch = spec.out_channels;
  }
  m.head = random_linear(rng, cfg.features_before_head(), cfg.num_classes, 6,
                         w_sigma);
  for (auto& v : m.head.weight.flat())
    v = static_cast<std::int32_t>(clamp_signed(v, weight_bits));
  return m;
}

KernelLog build_cnn_kernel_log(const CnnConfig& cfg, int batch) {
  cfg.validate();
  VITBIT_CHECK(batch >= 1);
  KernelLog log;
  int channels = cfg.channels;
  int size = cfg.image_size;
  // Batched inference stacks the images' im2col patch rows: each conv GEMM
  // grows in M, elementwise extents scale with the batch.
  for (std::size_t i = 0; i < cfg.convs.size(); ++i) {
    const auto& spec = cfg.convs[i];
    const std::string name = "conv" + std::to_string(i);
    const int out = conv_out_size(size, spec.kernel, spec.stride);
    log.add({KernelKind::kGemm, name, out * out * batch,
             channels * spec.kernel * spec.kernel, spec.out_channels, 1, 0});
    log.add({KernelKind::kRelu, name + ".relu", 0, 0, 0, 1,
             static_cast<std::int64_t>(out) * out * spec.out_channels * batch});
    size = out;
    channels = spec.out_channels;
    if (spec.pool_after) {
      size /= 2;
      log.add({KernelKind::kPool, name + ".pool", 0, 0, 0, 1,
               static_cast<std::int64_t>(channels) * size * size * batch});
    }
  }
  log.add({KernelKind::kGemm, "head", batch, channels * size * size,
           cfg.num_classes, 1, 0});
  return log;
}

}  // namespace vitbit::nn
