#include "nn/mixer.h"

#include <utility>

#include "common/int_math.h"
#include "quant/shift_gelu.h"

namespace vitbit::nn {

void MixerConfig::validate() const {
  VITBIT_CHECK(image_size % patch_size == 0);
  VITBIT_CHECK(hidden_dim >= 8 && token_mlp_dim >= 8 && channel_mlp_dim >= 8);
  VITBIT_CHECK(num_layers >= 1);
}

namespace {

// fc -> ShiftGELU -> fc, returning activations at x's scale/bitwidth.
quant::QTensor mlp_block(const quant::QTensor& x, const QuantLinear& fc1,
                         const QuantLinear& fc2, const GemmFn& gemm,
                         KernelLog* log, const std::string& name,
                         int act_bits) {
  auto mid = fc1.forward(x, x.frac_bits, gemm, log, name + ".fc1", act_bits);
  mid.q = quant::shift_gelu_clamped(std::move(mid.q), mid.frac_bits, act_bits);
  if (log)
    log->add({KernelKind::kGelu, name + ".gelu", 0, 0, 0, 1,
              static_cast<std::int64_t>(mid.q.size())});
  return fc2.forward(mid, x.frac_bits, gemm, log, name + ".fc2", act_bits);
}

}  // namespace

MatrixF32 MixerModel::forward(const MatrixF32& patches, const GemmFn& gemm,
                              KernelLog* log) const {
  cfg.validate();
  VITBIT_CHECK(patches.rows() == cfg.num_patches());
  VITBIT_CHECK(patches.cols() == cfg.patch_dim());
  const auto patches_q = quant::quantize(patches, act_frac_bits, act_bits);
  auto x = patch_embed.forward(patches_q, act_frac_bits, gemm, log,
                               "patch_embed", act_bits);

  for (std::size_t i = 0; i < layers.size(); ++i) {
    const std::string p = "layer" + std::to_string(i);
    const auto& layer = layers[i];
    // Token mixing: normalize, transpose to (hidden x tokens), MLP over the
    // token dimension, transpose back, residual.
    const auto ln1 = layer_norm(x, log, p + ".ln1", act_bits);
    quant::QTensor t;
    t.frac_bits = ln1.frac_bits;
    t.q = transpose(ln1.q);
    const auto mixed =
        mlp_block(t, layer.token_fc1, layer.token_fc2, gemm, log,
                  p + ".token", act_bits);
    quant::QTensor mixed_back;
    mixed_back.frac_bits = mixed.frac_bits;
    mixed_back.q = transpose(mixed.q);
    x = residual_add(x, mixed_back, log, p + ".add1", act_bits);

    // Channel mixing.
    const auto ln2 = layer_norm(x, log, p + ".ln2", act_bits);
    const auto ch = mlp_block(ln2, layer.channel_fc1, layer.channel_fc2, gemm,
                              log, p + ".channel", act_bits);
    x = residual_add(x, ch, log, p + ".add2", act_bits);
  }

  x = layer_norm(x, log, "final.ln", act_bits);
  // Global average pool over tokens, then classify.
  quant::QTensor pooled;
  pooled.frac_bits = x.frac_bits;
  pooled.q = MatrixI32(1, cfg.hidden_dim);
  for (int c = 0; c < cfg.hidden_dim; ++c) {
    std::int64_t sum = 0;
    for (int r = 0; r < x.rows(); ++r) sum += x.q.at(r, c);
    pooled.q.at(0, c) = static_cast<std::int32_t>(clamp_signed(
        sum >= 0 ? (sum + x.rows() / 2) / x.rows()
                 : -((-sum + x.rows() / 2) / x.rows()),
        act_bits));
  }
  if (log)
    log->add({KernelKind::kAdd, "pool", 0, 0, 0, 1,
              static_cast<std::int64_t>(x.q.size())});
  const MatrixI32 acc = gemm(pooled.q, head.weight);
  if (log)
    log->add({KernelKind::kGemm, "head", 1, cfg.hidden_dim, cfg.num_classes,
              1, 0});
  return head_logits(acc, head, pooled.frac_bits);
}

MixerModel random_mixer(const MixerConfig& cfg, std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  MixerModel m;
  m.cfg = cfg;
  m.patch_embed = random_linear(rng, cfg.patch_dim(), cfg.hidden_dim);
  for (int i = 0; i < cfg.num_layers; ++i) {
    MixerLayer l;
    l.token_fc1 = random_linear(rng, cfg.num_patches(), cfg.token_mlp_dim);
    l.token_fc2 = random_linear(rng, cfg.token_mlp_dim, cfg.num_patches());
    l.channel_fc1 = random_linear(rng, cfg.hidden_dim, cfg.channel_mlp_dim);
    l.channel_fc2 = random_linear(rng, cfg.channel_mlp_dim, cfg.hidden_dim);
    m.layers.push_back(std::move(l));
  }
  m.head = random_linear(rng, cfg.hidden_dim, cfg.num_classes);
  return m;
}

KernelLog build_mixer_kernel_log(const MixerConfig& cfg, int batch) {
  cfg.validate();
  VITBIT_CHECK(batch >= 1);
  KernelLog log;
  const int tokens = cfg.num_patches();
  const int hidden = cfg.hidden_dim;
  // Batched inference concatenates the images' token sequences: channel-
  // mixing GEMMs grow in M, token-mixing GEMMs (per-image transposed
  // views) grow in batch count, elementwise extents scale with the batch.
  const int seq = tokens * batch;
  const std::int64_t acts = static_cast<std::int64_t>(seq) * hidden;
  log.add({KernelKind::kGemm, "patch_embed", seq, cfg.patch_dim(), hidden,
           1, 0});
  for (int i = 0; i < cfg.num_layers; ++i) {
    const std::string p = "layer" + std::to_string(i);
    log.add({KernelKind::kLayerNorm, p + ".ln1", 0, 0, 0, 1, acts});
    log.add({KernelKind::kGemm, p + ".token.fc1", hidden, tokens,
             cfg.token_mlp_dim, batch, 0});
    log.add({KernelKind::kGelu, p + ".token.gelu", 0, 0, 0, 1,
             static_cast<std::int64_t>(hidden) * cfg.token_mlp_dim * batch});
    log.add({KernelKind::kGemm, p + ".token.fc2", hidden, cfg.token_mlp_dim,
             tokens, batch, 0});
    log.add({KernelKind::kAdd, p + ".add1", 0, 0, 0, 1, acts});
    log.add({KernelKind::kLayerNorm, p + ".ln2", 0, 0, 0, 1, acts});
    log.add({KernelKind::kGemm, p + ".channel.fc1", seq, hidden,
             cfg.channel_mlp_dim, 1, 0});
    log.add({KernelKind::kGelu, p + ".channel.gelu", 0, 0, 0, 1,
             static_cast<std::int64_t>(seq) * cfg.channel_mlp_dim});
    log.add({KernelKind::kGemm, p + ".channel.fc2", seq,
             cfg.channel_mlp_dim, hidden, 1, 0});
    log.add({KernelKind::kAdd, p + ".add2", 0, 0, 0, 1, acts});
  }
  log.add({KernelKind::kLayerNorm, "final.ln", 0, 0, 0, 1, acts});
  log.add({KernelKind::kAdd, "pool", 0, 0, 0, 1, acts});
  log.add({KernelKind::kGemm, "head", batch, hidden, cfg.num_classes, 1, 0});
  return log;
}

}  // namespace vitbit::nn
