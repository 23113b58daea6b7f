#include "nn/vit_model.h"

#include <cmath>

#include "common/int_math.h"
#include "tensor/gemm_dispatch.h"
#include "quant/ilayernorm.h"
#include "quant/shift_gelu.h"
#include "quant/shiftmax.h"

namespace vitbit::nn {

MatrixF32 VitModel::forward(const MatrixF32& patches, const GemmFn& gemm,
                            KernelLog* log) const {
  cfg.validate();
  VITBIT_CHECK(patches.rows() == cfg.num_patches());
  VITBIT_CHECK(patches.cols() == cfg.patch_dim());

  // Patch embedding (a linear layer over flattened patches).
  const auto patches_q = quant::quantize(patches, act_frac_bits, act_bits);
  const auto embedded = patch_embed.forward(patches_q, act_frac_bits, gemm,
                                            log, "patch_embed", act_bits);

  // Prepend class token, add position embeddings.
  quant::QTensor x;
  x.frac_bits = act_frac_bits;
  x.q = MatrixI32(cfg.seq_len(), cfg.hidden_dim);
  for (int c = 0; c < cfg.hidden_dim; ++c)
    x.q.at(0, c) = static_cast<std::int32_t>(clamp_signed(
        static_cast<std::int64_t>(cls_token[static_cast<std::size_t>(c)]) +
            pos_embed.at(0, c),
        act_bits));
  for (int r = 0; r < cfg.num_patches(); ++r)
    for (int c = 0; c < cfg.hidden_dim; ++c)
      x.q.at(r + 1, c) = static_cast<std::int32_t>(clamp_signed(
          static_cast<std::int64_t>(embedded.q.at(r, c)) +
              pos_embed.at(r + 1, c),
          act_bits));
  if (log)
    log->add({KernelKind::kAdd, "pos_add", 0, 0, 0, 1,
              static_cast<std::int64_t>(x.q.size())});

  for (std::size_t i = 0; i < layers.size(); ++i)
    x = layers[i].forward(x, gemm, log, "layer" + std::to_string(i),
                          act_bits);

  x = layer_norm(x, log, "final.ln", act_bits);

  // Classification head on the class token only; logits as real values.
  quant::QTensor cls;
  cls.frac_bits = x.frac_bits;
  cls.q = MatrixI32(1, cfg.hidden_dim);
  for (int c = 0; c < cfg.hidden_dim; ++c) cls.q.at(0, c) = x.q.at(0, c);
  const MatrixI32 acc = gemm(cls.q, head.weight);
  if (log)
    log->add({KernelKind::kGemm, "head", 1, cfg.hidden_dim, cfg.num_classes,
              1, 0});
  return head_logits(acc, head, cls.frac_bits);
}

MatrixF32 VitModel::forward_f32(const MatrixF32& patches) const {
  cfg.validate();
  const double act_s = std::ldexp(1.0, -act_frac_bits);

  auto linear_f32 = [&](const MatrixF32& x, const QuantLinear& l) {
    MatrixF32 y = gemm_f32(x, l.weight_f32());
    const auto b = l.bias_f32(act_frac_bits);
    for (int r = 0; r < y.rows(); ++r)
      for (int c = 0; c < y.cols(); ++c)
        y.at(r, c) += b[static_cast<std::size_t>(c)];
    return y;
  };

  MatrixF32 emb = linear_f32(patches, patch_embed);
  MatrixF32 x(cfg.seq_len(), cfg.hidden_dim);
  for (int c = 0; c < cfg.hidden_dim; ++c)
    x.at(0, c) = static_cast<float>(
        (cls_token[static_cast<std::size_t>(c)] + pos_embed.at(0, c)) * act_s);
  for (int r = 0; r < cfg.num_patches(); ++r)
    for (int c = 0; c < cfg.hidden_dim; ++c)
      x.at(r + 1, c) = emb.at(r, c) +
                       static_cast<float>(pos_embed.at(r + 1, c) * act_s);

  const int hd = cfg.head_dim();
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(hd));
  for (const auto& layer : layers) {
    // Attention sublayer.
    const MatrixF32 ln1 = quant::layernorm_ref(x);
    const MatrixF32 qkv = linear_f32(ln1, layer.attn.qkv);
    MatrixF32 context(cfg.seq_len(), cfg.hidden_dim);
    for (int h = 0; h < cfg.num_heads; ++h) {
      MatrixF32 q(cfg.seq_len(), hd), k(cfg.seq_len(), hd),
          v(cfg.seq_len(), hd);
      for (int r = 0; r < cfg.seq_len(); ++r)
        for (int c = 0; c < hd; ++c) {
          q.at(r, c) = qkv.at(r, 0 * cfg.hidden_dim + h * hd + c);
          k.at(r, c) = qkv.at(r, 1 * cfg.hidden_dim + h * hd + c);
          v.at(r, c) = qkv.at(r, 2 * cfg.hidden_dim + h * hd + c);
        }
      MatrixF32 scores = gemm_f32(q, transpose(k));
      for (auto& s : scores.flat()) s = static_cast<float>(s * inv_sqrt_d);
      const MatrixF32 probs = quant::softmax_ref(scores);
      const MatrixF32 ctx = gemm_f32(probs, v);
      for (int r = 0; r < cfg.seq_len(); ++r)
        for (int c = 0; c < hd; ++c) context.at(r, c + h * hd) = ctx.at(r, c);
    }
    const MatrixF32 att = linear_f32(context, layer.attn.proj);
    for (std::size_t i = 0; i < x.size(); ++i) x.flat()[i] += att.flat()[i];

    // MLP sublayer.
    const MatrixF32 ln2 = quant::layernorm_ref(x);
    const MatrixF32 mid = quant::gelu_sigmoid_ref(linear_f32(ln2, layer.fc1));
    const MatrixF32 out = linear_f32(mid, layer.fc2);
    for (std::size_t i = 0; i < x.size(); ++i) x.flat()[i] += out.flat()[i];
  }

  const MatrixF32 final_ln = quant::layernorm_ref(x);
  MatrixF32 cls(1, cfg.hidden_dim);
  for (int c = 0; c < cfg.hidden_dim; ++c) cls.at(0, c) = final_ln.at(0, c);
  return linear_f32(cls, head);
}

VitModel random_vit(const VitConfig& cfg, std::uint64_t seed, int act_bits,
                    int weight_bits) {
  cfg.validate();
  VITBIT_CHECK(act_bits >= 3 && act_bits <= 8);
  VITBIT_CHECK(weight_bits >= 2 && weight_bits <= 8);
  Rng rng(seed);
  VitModel m;
  m.cfg = cfg;
  m.act_bits = act_bits;
  const std::int64_t w_max = signed_max(weight_bits);
  const double w_sigma = std::max(1.0, static_cast<double>(w_max) / 9.0);
  auto make_linear = [&](int in, int out) {
    return random_linear(rng, in, out, /*w_frac_bits=*/6, w_sigma);
  };
  auto clip_weights = [&](QuantLinear& l) {
    for (auto& v : l.weight.flat())
      v = static_cast<std::int32_t>(clamp_signed(v, weight_bits));
  };
  m.patch_embed = make_linear(cfg.patch_dim(), cfg.hidden_dim);
  clip_weights(m.patch_embed);
  m.pos_embed = MatrixI32(cfg.seq_len(), cfg.hidden_dim);
  const std::int64_t pos_max = std::min<std::int64_t>(32, signed_max(act_bits));
  fill_gaussian_clipped(m.pos_embed, rng, static_cast<double>(pos_max) / 8.0,
                        -pos_max, pos_max);
  m.cls_token.resize(static_cast<std::size_t>(cfg.hidden_dim));
  for (auto& v : m.cls_token)
    v = static_cast<std::int32_t>(rng.range(-pos_max / 2, pos_max / 2));
  m.layers.reserve(static_cast<std::size_t>(cfg.num_layers));
  for (int i = 0; i < cfg.num_layers; ++i) {
    auto layer = random_encoder_layer(rng, cfg);
    clip_weights(layer.attn.qkv);
    clip_weights(layer.attn.proj);
    clip_weights(layer.fc1);
    clip_weights(layer.fc2);
    m.layers.push_back(std::move(layer));
  }
  m.head = make_linear(cfg.hidden_dim, cfg.num_classes);
  clip_weights(m.head);
  return m;
}

MatrixF32 extract_patches(const MatrixF32& image_chw, const VitConfig& cfg) {
  VITBIT_CHECK(image_chw.rows() == cfg.channels * cfg.image_size);
  VITBIT_CHECK(image_chw.cols() == cfg.image_size);
  const int grid = cfg.image_size / cfg.patch_size;
  MatrixF32 patches(cfg.num_patches(), cfg.patch_dim());
  for (int pi = 0; pi < grid; ++pi)
    for (int pj = 0; pj < grid; ++pj)
      for (int py = 0; py < cfg.patch_size; ++py)
        for (int px = 0; px < cfg.patch_size; ++px)
          for (int c = 0; c < cfg.channels; ++c)
            patches.at(pi * grid + pj,
                       (py * cfg.patch_size + px) * cfg.channels + c) =
                image_chw.at(c * cfg.image_size + pi * cfg.patch_size + py,
                             pj * cfg.patch_size + px);
  return patches;
}

KernelLog build_kernel_log(const VitConfig& cfg, int batch) {
  cfg.validate();
  VITBIT_CHECK(batch >= 1);
  KernelLog log;
  // Batched inference concatenates the images' token sequences: linear
  // GEMMs grow in M, attention GEMMs in their batch count, elementwise
  // kernels in extent.
  const int seq = cfg.seq_len() * batch;
  const int hidden = cfg.hidden_dim;
  const std::int64_t tokens = static_cast<std::int64_t>(seq) * hidden;
  log.add({KernelKind::kGemm, "patch_embed", cfg.num_patches() * batch,
           cfg.patch_dim(), hidden, 1, 0});
  log.add({KernelKind::kAdd, "pos_add", 0, 0, 0, 1, tokens});
  for (int i = 0; i < cfg.num_layers; ++i) {
    const std::string p = "layer" + std::to_string(i);
    log.add({KernelKind::kLayerNorm, p + ".ln1", 0, 0, 0, 1, tokens});
    log.add(
        {KernelKind::kGemm, p + ".attn.qkv", seq, hidden, 3 * hidden, 1, 0});
    log.add({KernelKind::kGemm, p + ".attn.scores", cfg.seq_len(),
             cfg.head_dim(), cfg.seq_len(), cfg.num_heads * batch, 0});
    log.add({KernelKind::kSoftmax, p + ".attn.softmax", 0, 0, 0, 1,
             static_cast<std::int64_t>(cfg.num_heads) * batch * cfg.seq_len() *
                 cfg.seq_len()});
    log.add({KernelKind::kGemm, p + ".attn.context", cfg.seq_len(),
             cfg.seq_len(), cfg.head_dim(), cfg.num_heads * batch, 0});
    log.add({KernelKind::kGemm, p + ".attn.proj", seq, hidden, hidden, 1, 0});
    log.add({KernelKind::kDropout, p + ".drop1", 0, 0, 0, 1, tokens});
    log.add({KernelKind::kAdd, p + ".add1", 0, 0, 0, 1, tokens});
    log.add({KernelKind::kLayerNorm, p + ".ln2", 0, 0, 0, 1, tokens});
    log.add({KernelKind::kGemm, p + ".fc1", seq, hidden, cfg.mlp_dim, 1, 0});
    log.add({KernelKind::kGelu, p + ".gelu", 0, 0, 0, 1,
             static_cast<std::int64_t>(seq) * cfg.mlp_dim});
    log.add({KernelKind::kGemm, p + ".fc2", seq, cfg.mlp_dim, hidden, 1, 0});
    log.add({KernelKind::kDropout, p + ".drop2", 0, 0, 0, 1, tokens});
    log.add({KernelKind::kAdd, p + ".add2", 0, 0, 0, 1, tokens});
  }
  log.add({KernelKind::kLayerNorm, "final.ln", 0, 0, 0, 1, tokens});
  log.add({KernelKind::kGemm, "head", batch, hidden, cfg.num_classes, 1, 0});
  return log;
}

}  // namespace vitbit::nn
