#include "train/backprop.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace ft2 {
namespace {

// ---------------------------------------------------------------------------
// Small matmul helpers (training shapes are tiny; clarity over blocking).
// Weight layout is [out, in] (PyTorch Linear), so:
//   forward:   Y[T,out] = X[T,in] * W^T            -> matmul_nt
//   input grad dX[T,in]  = dY[T,out] * W            -> matmul_nn
//   weight grad dW[out,in] += dY^T * X              -> matmul_tn_acc
// ---------------------------------------------------------------------------

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& y) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  FT2_ASSERT(b.dim(1) == k);
  if (y.shape() != std::vector<std::size_t>{m, n}) y = Tensor({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.data() + i * k;
    float* yi = y.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* bj = b.data() + j * k;
      float acc = 0.0f;
      for (std::size_t t = 0; t < k; ++t) acc += ai[t] * bj[t];
      yi[j] = acc;
    }
  }
}

void matmul_nn(const Tensor& a, const Tensor& b, Tensor& y) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  FT2_ASSERT(b.dim(0) == k);
  if (y.shape() != std::vector<std::size_t>{m, n}) y = Tensor({m, n});
  y.fill(0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.data() + i * k;
    float* yi = y.data() + i * n;
    for (std::size_t t = 0; t < k; ++t) {
      const float av = ai[t];
      if (av == 0.0f) continue;
      const float* bt = b.data() + t * n;
      for (std::size_t j = 0; j < n; ++j) yi[j] += av * bt[j];
    }
  }
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& y) {
  // y[n,p] += a[m,n]^T * b[m,p]
  const std::size_t m = a.dim(0), n = a.dim(1), p = b.dim(1);
  FT2_ASSERT(b.dim(0) == m && y.dim(0) == n && y.dim(1) == p);
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.data() + i * n;
    const float* bi = b.data() + i * p;
    for (std::size_t j = 0; j < n; ++j) {
      const float av = ai[j];
      if (av == 0.0f) continue;
      float* yj = y.data() + j * p;
      for (std::size_t t = 0; t < p; ++t) yj[t] += av * bi[t];
    }
  }
}

void add_rows_acc(const Tensor& dy, Tensor& db) {
  FT2_ASSERT(db.numel() == dy.dim(1));
  for (std::size_t i = 0; i < dy.dim(0); ++i) {
    const float* row = dy.data() + i * dy.dim(1);
    for (std::size_t j = 0; j < dy.dim(1); ++j) db[j] += row[j];
  }
}

// ---------------------------------------------------------------------------
// Norm forward/backward (per row).
// ---------------------------------------------------------------------------

void layernorm_backward_row(std::span<const float> x, std::span<const float> dy,
                            std::span<const float> gamma, float eps,
                            std::span<float> dx, std::span<float> dgamma,
                            std::span<float> dbeta) {
  const std::size_t d = x.size();
  float mean = 0.0f;
  for (float f : x) mean += f;
  mean /= static_cast<float>(d);
  float var = 0.0f;
  for (float f : x) var += (f - mean) * (f - mean);
  var /= static_cast<float>(d);
  const float inv = 1.0f / std::sqrt(var + eps);

  float sum_gdy = 0.0f;
  float sum_gdy_xhat = 0.0f;
  for (std::size_t i = 0; i < d; ++i) {
    const float xhat = (x[i] - mean) * inv;
    const float g = gamma[i] * dy[i];
    sum_gdy += g;
    sum_gdy_xhat += g * xhat;
    dgamma[i] += dy[i] * xhat;
    dbeta[i] += dy[i];
  }
  const float dn = static_cast<float>(d);
  for (std::size_t i = 0; i < d; ++i) {
    const float xhat = (x[i] - mean) * inv;
    dx[i] = (gamma[i] * dy[i] - sum_gdy / dn - xhat * sum_gdy_xhat / dn) * inv;
  }
}

void rmsnorm_backward_row(std::span<const float> x, std::span<const float> dy,
                          std::span<const float> gamma, float eps,
                          std::span<float> dx, std::span<float> dgamma) {
  const std::size_t d = x.size();
  float ms = 0.0f;
  for (float f : x) ms += f * f;
  ms /= static_cast<float>(d);
  const float r = std::sqrt(ms + eps);
  float dot = 0.0f;
  for (std::size_t i = 0; i < d; ++i) {
    dgamma[i] += dy[i] * x[i] / r;
    dot += dy[i] * gamma[i] * x[i];
  }
  const float coef = dot / (static_cast<float>(d) * r * r * r);
  for (std::size_t i = 0; i < d; ++i) {
    dx[i] = gamma[i] * dy[i] / r - x[i] * coef;
  }
}

// ---------------------------------------------------------------------------
// Activation derivatives.
// ---------------------------------------------------------------------------

float act_backward_scalar(Activation act, float x) {
  switch (act) {
    case Activation::kRelu:
      return x > 0.0f ? 1.0f : 0.0f;
    case Activation::kGelu: {
      const float c = 0.7978845608028654f;
      const float u = c * (x + 0.044715f * x * x * x);
      const float t = std::tanh(u);
      const float du = c * (1.0f + 3.0f * 0.044715f * x * x);
      return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
    }
    case Activation::kSilu: {
      const float s = sigmoid_scalar(x);
      return s * (1.0f + x * (1.0f - s));
    }
  }
  return 0.0f;
}

float act_forward_scalar(Activation act, float x) {
  switch (act) {
    case Activation::kRelu: return std::max(x, 0.0f);
    case Activation::kGelu: return gelu_scalar(x);
    case Activation::kSilu: return silu_scalar(x);
  }
  return 0.0f;
}

// ---------------------------------------------------------------------------
// Forward cache.
// ---------------------------------------------------------------------------

struct BlockFwd {
  Tensor x_in;   // [T,d]
  Tensor h1;     // [T,d]
  Tensor q, k, v;  // [T,d] (q,k post-RoPE)
  Tensor probs;  // [H*T*T] causal softmax probabilities
  Tensor attn;   // [T,d]
  Tensor o;      // [T,d]
  Tensor x_mid;  // [T,d]   serial blocks only
  Tensor h2;     // [T,d]   serial blocks only
  Tensor f1;     // [T,f]   pre-activation (fc1 / gate)
  Tensor f_up;   // [T,f]   llama up-proj output
  Tensor act;    // [T,f]   activation output
  Tensor m;      // [T,f]   act * up (llama)
  Tensor f2;     // [T,d]
};

struct ForwardCache {
  Tensor x0;
  std::vector<BlockFwd> blocks;
  Tensor x_final;
  Tensor hf;
  Tensor logits;
};

void norm_forward(const ModelConfig& cfg, const NormWeights& nw,
                  const Tensor& in, Tensor& out) {
  if (cfg.norm == NormKind::kLayerNorm) {
    layernorm_rows(in, nw.gamma.span(), nw.beta.span(), cfg.norm_eps, out);
  } else {
    rmsnorm_rows(in, nw.gamma.span(), cfg.norm_eps, out);
  }
}

void attention_forward(const ModelConfig& cfg, const BlockWeights& blk,
                       BlockFwd& fwd) {
  const std::size_t t_len = fwd.h1.dim(0);
  const std::size_t heads = cfg.n_heads;
  const std::size_t hd = cfg.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  matmul_nt(fwd.h1, blk.q.w, fwd.q);
  matmul_nt(fwd.h1, blk.k.w, fwd.k);
  matmul_nt(fwd.h1, blk.v.w, fwd.v);
  auto add_bias = [&](Tensor& y, const LinearWeights& lw) {
    if (!lw.has_bias) return;
    for (std::size_t i = 0; i < t_len; ++i) add_inplace(y.row(i), lw.b.span());
  };
  add_bias(fwd.q, blk.q);
  add_bias(fwd.k, blk.k);
  add_bias(fwd.v, blk.v);

  if (cfg.position == PositionKind::kRotary) {
    for (std::size_t i = 0; i < t_len; ++i) {
      rope_apply(fwd.q.row(i), heads, hd, i, cfg.rope_theta);
      rope_apply(fwd.k.row(i), heads, hd, i, cfg.rope_theta);
    }
  }

  fwd.probs = Tensor({heads, t_len, t_len});
  fwd.attn = Tensor({t_len, cfg.d_model});
  for (std::size_t h = 0; h < heads; ++h) {
    const std::size_t off = h * hd;
    for (std::size_t i = 0; i < t_len; ++i) {
      float* prow = fwd.probs.data() + (h * t_len + i) * t_len;
      const float* qi = fwd.q.row(i).data() + off;
      for (std::size_t j = 0; j <= i; ++j) {
        const float* kj = fwd.k.row(j).data() + off;
        float dot = 0.0f;
        for (std::size_t e = 0; e < hd; ++e) dot += qi[e] * kj[e];
        prow[j] = dot * scale;
      }
      softmax({prow, i + 1});
      float* oi = fwd.attn.row(i).data() + off;
      for (std::size_t e = 0; e < hd; ++e) oi[e] = 0.0f;
      for (std::size_t j = 0; j <= i; ++j) {
        const float p = prow[j];
        const float* vj = fwd.v.row(j).data() + off;
        for (std::size_t e = 0; e < hd; ++e) oi[e] += p * vj[e];
      }
    }
  }

  matmul_nt(fwd.attn, blk.o.w, fwd.o);
  add_bias(fwd.o, blk.o);
}

void mlp_forward(const ModelConfig& cfg, const BlockWeights& blk,
                 const Tensor& input, BlockFwd& fwd) {
  const std::size_t t_len = input.dim(0);
  auto add_bias = [&](Tensor& y, const LinearWeights& lw) {
    if (!lw.has_bias) return;
    for (std::size_t i = 0; i < t_len; ++i) add_inplace(y.row(i), lw.b.span());
  };
  const bool llama = cfg.arch == ArchFamily::kLlama;
  matmul_nt(input, blk.fc1.w, fwd.f1);
  add_bias(fwd.f1, blk.fc1);
  fwd.act = Tensor(fwd.f1.shape());
  for (std::size_t i = 0; i < fwd.f1.numel(); ++i) {
    fwd.act[i] = act_forward_scalar(cfg.activation, fwd.f1[i]);
  }
  if (llama) {
    matmul_nt(input, blk.up.w, fwd.f_up);
    add_bias(fwd.f_up, blk.up);
    fwd.m = Tensor(fwd.act.shape());
    for (std::size_t i = 0; i < fwd.m.numel(); ++i) {
      fwd.m[i] = fwd.act[i] * fwd.f_up[i];
    }
    matmul_nt(fwd.m, blk.fc2.w, fwd.f2);
  } else {
    matmul_nt(fwd.act, blk.fc2.w, fwd.f2);
  }
  add_bias(fwd.f2, blk.fc2);
}

ForwardCache run_forward(const ModelConfig& cfg, const ModelWeights& w,
                         const std::vector<int>& tokens) {
  const std::size_t t_len = tokens.size();
  FT2_CHECK(t_len >= 2 && t_len <= cfg.max_seq);

  ForwardCache cache;
  cache.x0 = Tensor({t_len, cfg.d_model});
  for (std::size_t i = 0; i < t_len; ++i) {
    auto row = cache.x0.row(i);
    auto emb = w.tok_emb.row(static_cast<std::size_t>(tokens[i]));
    std::copy(emb.begin(), emb.end(), row.begin());
    if (cfg.position == PositionKind::kLearned) {
      add_inplace(row, w.pos_emb.row(i));
    }
  }

  Tensor x = cache.x0;
  cache.blocks.resize(cfg.n_blocks);
  for (std::size_t b = 0; b < cfg.n_blocks; ++b) {
    const auto& blk = w.blocks[b];
    BlockFwd& fwd = cache.blocks[b];
    fwd.x_in = x;
    fwd.h1 = Tensor(x.shape());
    norm_forward(cfg, blk.norm1, fwd.x_in, fwd.h1);
    fwd.f1 = Tensor({t_len, cfg.d_ff});
    fwd.f_up = Tensor({t_len, cfg.d_ff});
    fwd.f2 = Tensor({t_len, cfg.d_model});

    attention_forward(cfg, blk, fwd);

    if (cfg.parallel_block) {
      mlp_forward(cfg, blk, fwd.h1, fwd);
      for (std::size_t i = 0; i < x.numel(); ++i) {
        x[i] = fwd.x_in[i] + fwd.o[i] + fwd.f2[i];
      }
    } else {
      fwd.x_mid = Tensor(x.shape());
      for (std::size_t i = 0; i < x.numel(); ++i) {
        fwd.x_mid[i] = fwd.x_in[i] + fwd.o[i];
      }
      fwd.h2 = Tensor(x.shape());
      norm_forward(cfg, blk.norm2, fwd.x_mid, fwd.h2);
      mlp_forward(cfg, blk, fwd.h2, fwd);
      for (std::size_t i = 0; i < x.numel(); ++i) {
        x[i] = fwd.x_mid[i] + fwd.f2[i];
      }
    }
  }

  cache.x_final = x;
  cache.hf = Tensor(x.shape());
  norm_forward(cfg, w.final_norm, cache.x_final, cache.hf);
  matmul_nt(cache.hf, w.lm_head.w, cache.logits);
  return cache;
}

/// Masked mean CE loss and (optionally) dlogits.
float loss_and_dlogits(const ForwardCache& cache, const TrainSequence& seq,
                       Tensor* dlogits) {
  const std::size_t t_len = seq.tokens.size();
  const std::size_t vocab = cache.logits.dim(1);
  FT2_CHECK(seq.loss_weight.size() == t_len - 1);

  float total_w = 0.0f;
  for (float wt : seq.loss_weight) total_w += wt;
  if (dlogits != nullptr) {
    *dlogits = Tensor(cache.logits.shape());
  }
  if (total_w <= 0.0f) return 0.0f;

  double loss = 0.0;
  std::vector<float> probs(vocab);
  for (std::size_t t = 0; t + 1 < t_len; ++t) {
    const float wt = seq.loss_weight[t];
    if (wt <= 0.0f) continue;
    const int target = seq.tokens[t + 1];
    auto row = cache.logits.row(t);
    float mx = row[0];
    for (float f : row) mx = std::max(mx, f);
    for (std::size_t j = 0; j < vocab; ++j) probs[j] = row[j] - mx;
    active_kernel_ops().exp_span(probs.data(), probs.data(), vocab);
    double sum = 0.0;
    for (std::size_t j = 0; j < vocab; ++j) {
      sum += static_cast<double>(probs[j]);
    }
    const double logz = std::log(sum) + static_cast<double>(mx);
    loss += static_cast<double>(wt) *
            (logz - static_cast<double>(row[static_cast<std::size_t>(target)]));
    if (dlogits != nullptr) {
      auto drow = dlogits->row(t);
      const float inv_sum = static_cast<float>(1.0 / sum);
      for (std::size_t j = 0; j < vocab; ++j) {
        drow[j] = probs[j] * inv_sum * wt / total_w;
      }
      drow[static_cast<std::size_t>(target)] -= wt / total_w;
    }
  }
  return static_cast<float>(loss / static_cast<double>(total_w));
}

void norm_backward(const ModelConfig& cfg, const NormWeights& nw,
                   const Tensor& x, const Tensor& dy, Tensor& dx,
                   GradStore& grads) {
  if (dx.shape() != x.shape()) dx = Tensor(x.shape());
  auto& dgamma = grads.grad(nw.gamma);
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    if (cfg.norm == NormKind::kLayerNorm) {
      auto& dbeta = grads.grad(nw.beta);
      layernorm_backward_row(x.row(i), dy.row(i), nw.gamma.span(),
                             cfg.norm_eps, dx.row(i), dgamma.span(),
                             dbeta.span());
    } else {
      rmsnorm_backward_row(x.row(i), dy.row(i), nw.gamma.span(), cfg.norm_eps,
                           dx.row(i), dgamma.span());
    }
  }
}

void linear_backward(const LinearWeights& lw, const Tensor& input,
                     const Tensor& dy, Tensor* dx_acc, GradStore& grads) {
  matmul_tn_acc(dy, input, grads.grad(lw.w));
  if (lw.has_bias) add_rows_acc(dy, grads.grad(lw.b));
  if (dx_acc != nullptr) {
    Tensor dx;
    matmul_nn(dy, lw.w, dx);
    add_inplace(dx_acc->span(), dx.span());
  }
}

void rope_backward_rows(const ModelConfig& cfg, Tensor& d) {
  // The inverse of a rotation by +angle is a rotation by -angle; gradients
  // transform by the transpose, which for a rotation equals the inverse.
  const std::size_t heads = cfg.n_heads;
  const std::size_t hd = cfg.head_dim();
  const std::size_t half = hd / 2;
  for (std::size_t pos = 0; pos < d.dim(0); ++pos) {
    auto row = d.row(pos);
    for (std::size_t h = 0; h < heads; ++h) {
      float* head = row.data() + h * hd;
      for (std::size_t i = 0; i < half; ++i) {
        const float freq = std::pow(
            cfg.rope_theta, -static_cast<float>(2 * i) / static_cast<float>(hd));
        const float angle = static_cast<float>(pos) * freq;
        const float c = std::cos(angle);
        const float s = std::sin(angle);
        const float a = head[i];
        const float b = head[i + half];
        head[i] = a * c + b * s;
        head[i + half] = -a * s + b * c;
      }
    }
  }
}

void attention_backward(const ModelConfig& cfg, const BlockWeights& blk,
                        const BlockFwd& fwd, const Tensor& d_o, Tensor& dh1,
                        GradStore& grads) {
  const std::size_t t_len = fwd.h1.dim(0);
  const std::size_t heads = cfg.n_heads;
  const std::size_t hd = cfg.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // out_proj backward.
  Tensor d_attn;
  matmul_nn(d_o, blk.o.w, d_attn);
  matmul_tn_acc(d_o, fwd.attn, grads.grad(blk.o.w));
  if (blk.o.has_bias) add_rows_acc(d_o, grads.grad(blk.o.b));

  Tensor dq({t_len, cfg.d_model});
  Tensor dk({t_len, cfg.d_model});
  Tensor dv({t_len, cfg.d_model});

  std::vector<float> dprow;
  for (std::size_t h = 0; h < heads; ++h) {
    const std::size_t off = h * hd;
    for (std::size_t i = 0; i < t_len; ++i) {
      const float* prow = fwd.probs.data() + (h * t_len + i) * t_len;
      const float* dai = d_attn.row(i).data() + off;
      dprow.assign(i + 1, 0.0f);
      // dP and dV.
      for (std::size_t j = 0; j <= i; ++j) {
        const float* vj = fwd.v.row(j).data() + off;
        float acc = 0.0f;
        for (std::size_t e = 0; e < hd; ++e) acc += dai[e] * vj[e];
        dprow[j] = acc;
        float* dvj = dv.row(j).data() + off;
        const float p = prow[j];
        for (std::size_t e = 0; e < hd; ++e) dvj[e] += p * dai[e];
      }
      // Softmax backward: ds = p .* (dp - dot(dp, p)).
      float dot = 0.0f;
      for (std::size_t j = 0; j <= i; ++j) dot += dprow[j] * prow[j];
      // dQ/dK.
      const float* qi = fwd.q.row(i).data() + off;
      float* dqi = dq.row(i).data() + off;
      for (std::size_t j = 0; j <= i; ++j) {
        const float ds = prow[j] * (dprow[j] - dot) * scale;
        if (ds == 0.0f) continue;
        const float* kj = fwd.k.row(j).data() + off;
        float* dkj = dk.row(j).data() + off;
        for (std::size_t e = 0; e < hd; ++e) {
          dqi[e] += ds * kj[e];
          dkj[e] += ds * qi[e];
        }
      }
    }
  }

  if (cfg.position == PositionKind::kRotary) {
    rope_backward_rows(cfg, dq);
    rope_backward_rows(cfg, dk);
  }

  linear_backward(blk.q, fwd.h1, dq, &dh1, grads);
  linear_backward(blk.k, fwd.h1, dk, &dh1, grads);
  linear_backward(blk.v, fwd.h1, dv, &dh1, grads);
}

void mlp_backward(const ModelConfig& cfg, const BlockWeights& blk,
                  const Tensor& input, const BlockFwd& fwd, const Tensor& df2,
                  Tensor& d_input, GradStore& grads) {
  const bool llama = cfg.arch == ArchFamily::kLlama;
  if (llama) {
    Tensor dm;
    matmul_nn(df2, blk.fc2.w, dm);
    matmul_tn_acc(df2, fwd.m, grads.grad(blk.fc2.w));
    if (blk.fc2.has_bias) add_rows_acc(df2, grads.grad(blk.fc2.b));

    Tensor dact(fwd.act.shape());
    Tensor dup(fwd.f_up.shape());
    for (std::size_t i = 0; i < dm.numel(); ++i) {
      dact[i] = dm[i] * fwd.f_up[i];
      dup[i] = dm[i] * fwd.act[i];
    }
    Tensor df1(fwd.f1.shape());
    for (std::size_t i = 0; i < df1.numel(); ++i) {
      df1[i] = dact[i] * act_backward_scalar(cfg.activation, fwd.f1[i]);
    }
    linear_backward(blk.fc1, input, df1, &d_input, grads);
    linear_backward(blk.up, input, dup, &d_input, grads);
  } else {
    Tensor dact;
    matmul_nn(df2, blk.fc2.w, dact);
    matmul_tn_acc(df2, fwd.act, grads.grad(blk.fc2.w));
    if (blk.fc2.has_bias) add_rows_acc(df2, grads.grad(blk.fc2.b));

    Tensor df1(fwd.f1.shape());
    for (std::size_t i = 0; i < df1.numel(); ++i) {
      df1[i] = dact[i] * act_backward_scalar(cfg.activation, fwd.f1[i]);
    }
    linear_backward(blk.fc1, input, df1, &d_input, grads);
  }
}

}  // namespace

float forward_loss(const ModelConfig& config, const ModelWeights& weights,
                   const TrainSequence& seq) {
  const ForwardCache cache = run_forward(config, weights, seq.tokens);
  return loss_and_dlogits(cache, seq, nullptr);
}

Tensor forward_logits(const ModelConfig& config, const ModelWeights& weights,
                      const std::vector<int>& tokens) {
  return run_forward(config, weights, tokens).logits;
}

float forward_backward(const ModelConfig& cfg, const ModelWeights& w,
                       const TrainSequence& seq, GradStore& grads) {
  const ForwardCache cache = run_forward(cfg, w, seq.tokens);

  Tensor dlogits;
  const float loss = loss_and_dlogits(cache, seq, &dlogits);

  // lm_head backward.
  Tensor dhf;
  matmul_nn(dlogits, w.lm_head.w, dhf);
  matmul_tn_acc(dlogits, cache.hf, grads.grad(w.lm_head.w));

  Tensor dx;
  norm_backward(cfg, w.final_norm, cache.x_final, dhf, dx, grads);

  for (std::size_t b = cfg.n_blocks; b-- > 0;) {
    const auto& blk = w.blocks[b];
    const BlockFwd& fwd = cache.blocks[b];

    if (cfg.parallel_block) {
      // x_out = x_in + o + f2; dx flows to all three.
      Tensor dh1({fwd.h1.dim(0), cfg.d_model});
      mlp_backward(cfg, blk, fwd.h1, fwd, dx, dh1, grads);
      attention_backward(cfg, blk, fwd, dx, dh1, grads);
      Tensor dx_in;
      norm_backward(cfg, blk.norm1, fwd.x_in, dh1, dx_in, grads);
      add_inplace(dx.span(), dx_in.span());  // dx (residual) + norm path
    } else {
      // x_out = x_mid + f2.
      Tensor dh2({fwd.h2.dim(0), cfg.d_model});
      dh2.fill(0.0f);
      mlp_backward(cfg, blk, fwd.h2, fwd, dx, dh2, grads);
      Tensor dx_mid;
      norm_backward(cfg, blk.norm2, fwd.x_mid, dh2, dx_mid, grads);
      add_inplace(dx_mid.span(), dx.span());  // residual branch

      // x_mid = x_in + o.
      Tensor dh1({fwd.h1.dim(0), cfg.d_model});
      dh1.fill(0.0f);
      attention_backward(cfg, blk, fwd, dx_mid, dh1, grads);
      Tensor dx_in;
      norm_backward(cfg, blk.norm1, fwd.x_in, dh1, dx_in, grads);
      add_inplace(dx_in.span(), dx_mid.span());
      dx = std::move(dx_in);
    }
  }

  // Embedding backward.
  auto& d_tok = grads.grad(w.tok_emb);
  for (std::size_t i = 0; i < seq.tokens.size(); ++i) {
    const auto token = static_cast<std::size_t>(seq.tokens[i]);
    auto drow = dx.row(i);
    float* trow = d_tok.data() + token * cfg.d_model;
    for (std::size_t j = 0; j < cfg.d_model; ++j) trow[j] += drow[j];
    if (cfg.position == PositionKind::kLearned) {
      auto& d_pos = grads.grad(w.pos_emb);
      float* prow = d_pos.data() + i * cfg.d_model;
      for (std::size_t j = 0; j < cfg.d_model; ++j) prow[j] += drow[j];
    }
  }
  return loss;
}

}  // namespace ft2
