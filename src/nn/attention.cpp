#include "nn/attention.h"

#include <utility>

#include "common/int_math.h"
#include "quant/shiftmax.h"

namespace vitbit::nn {

quant::QTensor AttentionLayer::forward(const quant::QTensor& x,
                                       const GemmFn& gemm, KernelLog* log,
                                       const std::string& name,
                                       int act_bits) const {
  // Probabilities carry act_bits-1 fraction bits ([0, 2^(b-1)] fits the
  // signed b-bit range after shiftmax saturates them at prob_max — a
  // half-step saturation on exactly-1.0 rows).
  const int prob_bits = act_bits - 1;
  const auto prob_max =
      static_cast<std::int32_t>(signed_max(act_bits));
  const int seq = x.rows();
  const int hidden = x.cols();
  VITBIT_CHECK(hidden % num_heads == 0);
  const int hd = hidden / num_heads;
  VITBIT_CHECK_MSG((hd & (hd - 1)) == 0,
                   "head_dim must be a power of two so 1/sqrt(d) is dyadic");
  const int sqrt_d_shift = ilog2(static_cast<std::uint64_t>(hd)) / 2;

  // Fused QKV projection.
  const auto qkv_out =
      qkv.forward(x, x.frac_bits, gemm, log, name + ".qkv", act_bits);

  // Split heads: q and v each (seq x hd) per head, k straight into its
  // transpose (hd x seq).
  auto head_slice = [&](int which, int head) {
    MatrixI32 s(seq, hd);
    const int base = which * hidden + head * hd;
    for (int r = 0; r < seq; ++r)
      for (int c = 0; c < hd; ++c) s.at(r, c) = qkv_out.q.at(r, base + c);
    return s;
  };
  auto head_slice_t = [&](int head) {
    MatrixI32 s(hd, seq);
    const int base = hidden + head * hd;
    for (int r = 0; r < seq; ++r)
      for (int c = 0; c < hd; ++c) s.at(c, r) = qkv_out.q.at(r, base + c);
    return s;
  };

  MatrixI32 context(seq, hidden);
  for (int h = 0; h < num_heads; ++h) {
    // scores = q * k^T, at 2*frac_bits; the 1/sqrt(d) factor is a dyadic
    // shift absorbed into the shiftmax input scale.
    const MatrixI32 scores = gemm(head_slice(0, h), head_slice_t(h));
    const MatrixI32 probs = quant::shiftmax(
        scores, 2 * qkv_out.frac_bits + sqrt_d_shift, prob_bits, prob_max);
    // ctx = probs * v, probs at prob_bits fraction bits.
    const MatrixI32 ctx = gemm(probs, head_slice(2, h));
    for (int r = 0; r < seq; ++r)
      for (int c = 0; c < hd; ++c) context.at(r, c + h * hd) = ctx.at(r, c);
  }
  if (log) {
    log->add({KernelKind::kGemm, name + ".scores", seq, hd, seq, num_heads, 0});
    log->add({KernelKind::kSoftmax, name + ".softmax", 0, 0, 0, 1,
              static_cast<std::int64_t>(num_heads) * seq * seq});
    log->add(
        {KernelKind::kGemm, name + ".context", seq, seq, hd, num_heads, 0});
  }

  // Requantize context accumulators (prob_bits + frac_bits) back to the
  // activation scale, then project.
  quant::requantize_in_place(context, {}, prob_bits + qkv_out.frac_bits,
                             x.frac_bits, act_bits);
  quant::QTensor ctx_q;
  ctx_q.frac_bits = x.frac_bits;
  ctx_q.q = std::move(context);
  return proj.forward(ctx_q, x.frac_bits, gemm, log, name + ".proj",
                      act_bits);
}

AttentionLayer random_attention(Rng& rng, const VitConfig& cfg) {
  AttentionLayer a;
  a.num_heads = cfg.num_heads;
  a.qkv = random_linear(rng, cfg.hidden_dim, 3 * cfg.hidden_dim);
  a.proj = random_linear(rng, cfg.hidden_dim, cfg.hidden_dim);
  return a;
}

}  // namespace vitbit::nn
