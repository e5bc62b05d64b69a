#include "nn/weights.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace ft2 {
namespace {

void fill_normal(Tensor& t, Xoshiro256& rng, float stddev) {
  for (float& f : t.span()) {
    f = static_cast<float>(rng.normal()) * stddev;
  }
}

LinearWeights make_linear(std::size_t out, std::size_t in, bool bias,
                          Xoshiro256& rng, float stddev) {
  LinearWeights lw;
  lw.w = Tensor({out, in});
  fill_normal(lw.w, rng, stddev);
  lw.has_bias = bias;
  if (bias) lw.b = Tensor({out});
  return lw;
}

NormWeights make_norm(std::size_t d, NormKind kind) {
  NormWeights nw;
  nw.gamma = Tensor::full({d}, 1.0f);
  if (kind == NormKind::kLayerNorm) nw.beta = Tensor({d});
  return nw;
}

}  // namespace

ModelWeights init_weights(const ModelConfig& config, Xoshiro256& rng) {
  FT2_CHECK(config.vocab_size > 0);
  FT2_CHECK(config.d_model % config.n_heads == 0);

  ModelWeights w;
  const float base_std = 0.02f;
  const float resid_std =
      base_std / std::sqrt(2.0f * static_cast<float>(config.n_blocks));

  w.tok_emb = Tensor({config.vocab_size, config.d_model});
  fill_normal(w.tok_emb, rng, base_std);
  if (config.position == PositionKind::kLearned) {
    w.pos_emb = Tensor({config.max_seq, config.d_model});
    fill_normal(w.pos_emb, rng, base_std);
  }
  w.final_norm = make_norm(config.d_model, config.norm);
  w.lm_head = make_linear(config.vocab_size, config.d_model, false, rng,
                          base_std);

  const bool llama = config.arch == ArchFamily::kLlama;
  w.blocks.resize(config.n_blocks);
  for (auto& blk : w.blocks) {
    const bool qkv_bias = config.linear_bias || config.qkv_bias;
    blk.q = make_linear(config.d_model, config.d_model, qkv_bias, rng,
                        base_std);
    blk.k = make_linear(config.d_model, config.d_model, qkv_bias, rng,
                        base_std);
    blk.v = make_linear(config.d_model, config.d_model, qkv_bias, rng,
                        base_std);
    blk.o = make_linear(config.d_model, config.d_model, config.linear_bias,
                        rng, resid_std);
    blk.fc1 = make_linear(config.d_ff, config.d_model, config.linear_bias,
                          rng, base_std);
    blk.fc2 = make_linear(config.d_model, config.d_ff, config.linear_bias,
                          rng, resid_std);
    if (llama) {
      blk.up = make_linear(config.d_ff, config.d_model, config.linear_bias,
                           rng, base_std);
    }
    blk.norm1 = make_norm(config.d_model, config.norm);
    if (!config.parallel_block) blk.norm2 = make_norm(config.d_model, config.norm);
  }
  return w;
}

std::size_t parameter_count(const ModelConfig& config) {
  const std::size_t d = config.d_model;
  const std::size_t ff = config.d_ff;
  const bool llama = config.arch == ArchFamily::kLlama;
  const std::size_t norm = config.norm == NormKind::kLayerNorm ? 2 * d : d;
  const std::size_t qkv_bias =
      config.linear_bias || config.qkv_bias ? 3 * d : 0;
  const std::size_t bias =
      config.linear_bias ? d + ff + d + (llama ? ff : 0) : 0;
  const std::size_t per_block =
      4 * d * d + (llama ? 3 : 2) * d * ff + qkv_bias + bias +
      (config.parallel_block ? 1 : 2) * norm;
  std::size_t n = config.vocab_size * d + norm + config.vocab_size * d;
  if (config.position == PositionKind::kLearned) n += config.max_seq * d;
  return n + config.n_blocks * per_block;
}

std::vector<std::pair<std::string, Tensor*>> ModelWeights::named_parameters() {
  std::vector<std::pair<std::string, Tensor*>> out;
  auto add = [&out](const std::string& name, Tensor& t) {
    if (t.numel() > 0) out.emplace_back(name, &t);
  };
  add("tok_emb", tok_emb);
  add("pos_emb", pos_emb);
  add("final_norm.gamma", final_norm.gamma);
  add("final_norm.beta", final_norm.beta);
  add("lm_head.w", lm_head.w);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    auto& blk = blocks[i];
    const std::string p = "block" + std::to_string(i) + ".";
    auto add_linear = [&](const std::string& name, LinearWeights& lw) {
      add(p + name + ".w", lw.w);
      if (lw.has_bias) add(p + name + ".b", lw.b);
    };
    add_linear("q", blk.q);
    add_linear("k", blk.k);
    add_linear("v", blk.v);
    add_linear("o", blk.o);
    add_linear("fc1", blk.fc1);
    add_linear("fc2", blk.fc2);
    if (blk.up.w.numel() > 0) add_linear("up", blk.up);
    add(p + "norm1.gamma", blk.norm1.gamma);
    add(p + "norm1.beta", blk.norm1.beta);
    add(p + "norm2.gamma", blk.norm2.gamma);
    add(p + "norm2.beta", blk.norm2.beta);
  }
  return out;
}

std::vector<std::pair<std::string, const Tensor*>> ModelWeights::named_parameters()
    const {
  auto mut = const_cast<ModelWeights*>(this)->named_parameters();
  std::vector<std::pair<std::string, const Tensor*>> out;
  out.reserve(mut.size());
  for (auto& [name, t] : mut) out.emplace_back(name, t);
  return out;
}

std::size_t ModelWeights::parameter_count() const {
  std::size_t n = 0;
  for (const auto& [name, t] : named_parameters()) n += t->numel();
  return n;
}

LinearWeights& linear_at(ModelWeights& weights, const ModelConfig& config,
                         const LayerSite& site) {
  FT2_CHECK(site.block >= 0 &&
            static_cast<std::size_t>(site.block) < weights.blocks.size());
  return block_linear(weights.blocks[static_cast<std::size_t>(site.block)],
                      config, site.kind);
}

std::uint64_t weights_digest(const ModelWeights& weights) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix_bytes = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
  };
  for (const auto& [name, tensor] : weights.named_parameters()) {
    mix_bytes(name.data(), name.size());
    for (std::size_t d : tensor->shape()) mix_bytes(&d, sizeof(d));
    const auto span = tensor->span();
    mix_bytes(span.data(), span.size() * sizeof(float));
  }
  return h;
}

std::string weights_digest_hex(const ModelWeights& weights) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(weights_digest(weights)));
  return buf;
}

}  // namespace ft2
