// Weight containers for the decoder-only transformer.
//
// Biases are rank-1 tensors so the trainer can treat every parameter
// uniformly. Weight matrices use the PyTorch Linear layout [out, in].
#pragma once

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/config.hpp"
#include "tensor/tensor.hpp"

namespace ft2 {

struct LinearWeights {
  Tensor w;  // [out, in]
  Tensor b;  // [out] or empty
  bool has_bias = false;

  std::span<const float> bias_span() const {
    return has_bias ? b.span() : std::span<const float>{};
  }
};

struct NormWeights {
  Tensor gamma;  // [d]
  Tensor beta;   // [d]; empty for RMSNorm
};

struct BlockWeights {
  LinearWeights q, k, v, o;
  LinearWeights fc1;  // FC1 for OPT/GPT-J, GATE_PROJ for Llama
  LinearWeights fc2;  // FC2 for OPT/GPT-J, DOWN_PROJ for Llama
  LinearWeights up;   // UP_PROJ, Llama family only
  NormWeights norm1;
  NormWeights norm2;  // unused when parallel_block
};

struct ModelWeights {
  Tensor tok_emb;          // [vocab, d]
  Tensor pos_emb;          // [max_seq, d], learned-position models only
  NormWeights final_norm;
  LinearWeights lm_head;   // [vocab, d], no bias
  std::vector<BlockWeights> blocks;

  /// Every trainable tensor, paired with a stable debug name.
  std::vector<std::pair<std::string, Tensor*>> named_parameters();
  std::vector<std::pair<std::string, const Tensor*>> named_parameters() const;

  std::size_t parameter_count() const;
};

/// The number of floats init_weights(config) allocates, computed without
/// allocating. Cannot overflow for dimensions of at most 2^20 each.
std::size_t parameter_count(const ModelConfig& config);

/// Allocates and randomly initializes weights for `config` (GPT-2-style
/// init: N(0, 0.02), residual-output projections scaled by 1/sqrt(2L),
/// norms at identity).
ModelWeights init_weights(const ModelConfig& config, Xoshiro256& rng);

/// The linear of kind `kind` in one block's set of linears: a
/// BlockWeights, or the packed PackedDecodeWeights::Block (nn/model.hpp),
/// which names its members alike. Throws ft2::Error for a kind that is
/// not a linear of `config`'s architecture.
template <class Block>
auto& block_linear(Block& blk, const ModelConfig& config, LayerKind kind) {
  const bool llama = config.arch == ArchFamily::kLlama;
  switch (kind) {
    case LayerKind::kQProj: return blk.q;
    case LayerKind::kKProj: return blk.k;
    case LayerKind::kVProj: return blk.v;
    case LayerKind::kOutProj: return blk.o;
    case LayerKind::kFc1:
      FT2_CHECK(!llama);
      return blk.fc1;
    case LayerKind::kFc2:
      FT2_CHECK(!llama);
      return blk.fc2;
    case LayerKind::kGateProj:
      FT2_CHECK(llama);
      return blk.fc1;
    case LayerKind::kDownProj:
      FT2_CHECK(llama);
      return blk.fc2;
    case LayerKind::kUpProj:
      FT2_CHECK(llama);
      return blk.up;
    default:
      break;
  }
  throw Error("not a linear layer kind");
}

/// Access the LinearWeights of a (block, linear-kind) site.
LinearWeights& linear_at(ModelWeights& weights, const ModelConfig& config,
                         const LayerSite& site);

/// Order-sensitive FNV-1a digest over every named parameter (name, shape
/// and raw f32 bytes). Two models share a digest iff they share trained
/// weights, which is what shard manifests record so a resumed campaign
/// shard can refuse to continue against a different checkpoint.
std::uint64_t weights_digest(const ModelWeights& weights);

/// weights_digest as the fixed-width hex string stored in shard manifests.
std::string weights_digest_hex(const ModelWeights& weights);

}  // namespace ft2
