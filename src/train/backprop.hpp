// Teacher-forced forward + manual backward pass over one sequence.
//
// Training runs in FP32 on full [T, d] matrices (no KV cache, no hooks),
// on the row-major ModelWeights; inference uses the hooked incremental path
// in nn/model.*, on a TransformerLM built from those weights (which packs
// them). A trained model is therefore directly usable by the fault-
// injection engine. Gradient correctness is pinned down by finite-difference
// tests (tests/train/backprop_test.cpp).
#pragma once

#include <span>
#include <vector>

#include "nn/weights.hpp"
#include "train/grad_store.hpp"

namespace ft2 {

/// One training example: token sequence plus per-position loss weights.
/// Position t (0-based) predicts tokens[t+1] with weight loss_weight[t];
/// loss_weight has size tokens.size() - 1.
struct TrainSequence {
  std::vector<int> tokens;
  std::vector<float> loss_weight;
};

/// Runs forward + backward for `seq`, accumulating parameter gradients into
/// `grads` and returning the (weighted mean) cross-entropy loss. The loss
/// normalizer is the sum of loss weights of this sequence.
float forward_backward(const ModelConfig& config, const ModelWeights& weights,
                       const TrainSequence& seq, GradStore& grads);

/// Forward-only loss (used by evaluation and the finite-difference tests).
float forward_loss(const ModelConfig& config, const ModelWeights& weights,
                   const TrainSequence& seq);

/// Full-sequence logits [T, vocab] from the training (batched, FP32)
/// forward path. Used to cross-validate the incremental inference engine.
Tensor forward_logits(const ModelConfig& config, const ModelWeights& weights,
                      const std::vector<int>& tokens);

}  // namespace ft2
