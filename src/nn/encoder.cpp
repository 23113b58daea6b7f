#include "nn/encoder.h"

#include <algorithm>
#include <utility>

#include "common/int_math.h"
#include "quant/ilayernorm.h"
#include "quant/shift_gelu.h"

namespace vitbit::nn {

quant::QTensor residual_add(const quant::QTensor& a, const quant::QTensor& b,
                            KernelLog* log, const std::string& name,
                            int act_bits) {
  VITBIT_CHECK(a.frac_bits == b.frac_bits);
  VITBIT_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  quant::QTensor out;
  out.frac_bits = a.frac_bits;
  out.q = MatrixI32(a.rows(), a.cols());
  // One pass on int32 lanes: a wrapping sum, replaced by the int32 limit
  // on overflow, then the act_bits clamp. Past 32 bits the clamp is a
  // no-op and the int32 store wraps, as the int64 sum's store did.
  const auto lo = static_cast<std::int32_t>(
      std::max<std::int64_t>(signed_min(act_bits), INT32_MIN));
  const auto hi = static_cast<std::int32_t>(
      std::min<std::int64_t>(signed_max(act_bits), INT32_MAX));
  const std::int32_t saturate = act_bits <= 32 ? -1 : 0;
  const std::int32_t* const pa = a.q.data();
  const std::int32_t* const pb = b.q.data();
  std::int32_t* const po = out.q.data();
  for (std::size_t i = 0; i < out.q.size(); ++i) {
    const std::int32_t u = pa[i], v = pb[i];
    const auto sum = static_cast<std::int32_t>(static_cast<std::uint32_t>(u) +
                                               static_cast<std::uint32_t>(v));
    // The sum overflowed iff u and v share a sign that it lacks.
    const std::int32_t ovf = (((u ^ sum) & (v ^ sum)) >> 31) & saturate;
    const std::int32_t limit = (u >> 31) ^ INT32_MAX;
    po[i] = std::min(std::max((limit & ovf) | (sum & ~ovf), lo), hi);
  }
  if (log)
    log->add({KernelKind::kAdd, name, 0, 0, 0, 1,
              static_cast<std::int64_t>(out.q.size())});
  return out;
}

quant::QTensor layer_norm(const quant::QTensor& x, KernelLog* log,
                          const std::string& name, int act_bits) {
  quant::QTensor out;
  out.frac_bits = x.frac_bits;
  // A clamp to 32 or more bits keeps every int32: ilayernorm's 32.
  out.q = quant::ilayernorm(x.q, x.frac_bits, std::min(act_bits, 32));
  if (log)
    log->add({KernelKind::kLayerNorm, name, 0, 0, 0, 1,
              static_cast<std::int64_t>(out.q.size())});
  return out;
}

quant::QTensor dropout(quant::QTensor x, KernelLog* log,
                       const std::string& name) {
  if (log)
    log->add({KernelKind::kDropout, name, 0, 0, 0, 1,
              static_cast<std::int64_t>(x.q.size())});
  return x;
}

quant::QTensor EncoderLayer::forward(const quant::QTensor& x,
                                     const GemmFn& gemm, KernelLog* log,
                                     const std::string& name,
                                     int act_bits) const {
  const auto ln1 = layer_norm(x, log, name + ".ln1", act_bits);
  const auto att_d =
      dropout(attn.forward(ln1, gemm, log, name + ".attn", act_bits), log,
              name + ".drop1");
  const auto h = residual_add(x, att_d, log, name + ".add1", act_bits);

  const auto ln2 = layer_norm(h, log, name + ".ln2", act_bits);
  auto mid =
      fc1.forward(ln2, ln2.frac_bits, gemm, log, name + ".fc1", act_bits);
  mid.q = quant::shift_gelu_clamped(std::move(mid.q), mid.frac_bits, act_bits);
  if (log)
    log->add({KernelKind::kGelu, name + ".gelu", 0, 0, 0, 1,
              static_cast<std::int64_t>(mid.q.size())});
  const auto out_d =
      dropout(fc2.forward(mid, x.frac_bits, gemm, log, name + ".fc2", act_bits),
              log, name + ".drop2");
  return residual_add(h, out_d, log, name + ".add2", act_bits);
}

EncoderLayer random_encoder_layer(Rng& rng, const VitConfig& cfg) {
  EncoderLayer l;
  l.attn = random_attention(rng, cfg);
  l.fc1 = random_linear(rng, cfg.hidden_dim, cfg.mlp_dim);
  l.fc2 = random_linear(rng, cfg.mlp_dim, cfg.hidden_dim);
  return l;
}

}  // namespace vitbit::nn
