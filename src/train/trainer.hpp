// Multi-task trainer: fits a tiny decoder-only LM on the synthetic tasks.
//
// Sequences are `<bos> prompt answer <eos>`; the loss emphasizes answer
// positions (weight 1.0) while keeping a small weight on prompt positions
// (0.1) so the model also learns the input distribution — that keeps the
// activation statistics of prompt processing realistic, which matters for
// the first-token bound profiling experiments.
#pragma once

#include <functional>

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "train/adam.hpp"
#include "train/backprop.hpp"

namespace ft2 {

struct TrainerConfig {
  std::size_t steps = 1500;
  std::size_t batch_size = 8;
  std::size_t warmup_steps = 50;
  float peak_lr = 2e-3f;
  float grad_clip = 1.0f;
  float prompt_loss_weight = 0.1f;
  std::uint64_t seed = 1;
  /// Per-task mixture weights (parallel to the tasks vector passed to
  /// train_model); empty = uniform.
  std::vector<double> task_weights;
  std::size_t eval_every = 250;       ///< 0 disables periodic eval
  std::size_t eval_samples = 40;
  double target_accuracy = 0.995;     ///< stop early when eval reaches this
  std::size_t min_steps = 200;        ///< never stop before this many steps
};

/// Builds the training sequence for one sample.
TrainSequence make_train_sequence(const Sample& sample,
                                  float prompt_loss_weight);

/// Greedy-decode accuracy of `model` on fresh samples from `gen`
/// (fraction whose generated text contains the reference answer).
double evaluate_accuracy(const TransformerLM& model,
                         const DatasetGenerator& gen, std::size_t n,
                         std::uint64_t seed, std::size_t max_new_tokens = 24);

/// Answer-token perplexity of the row-major `weights` on fresh samples
/// from `gen` (exp of the mean cross-entropy over answer positions).
double evaluate_perplexity(const ModelConfig& model_config,
                           const ModelWeights& weights,
                           const DatasetGenerator& gen, std::size_t n,
                           std::uint64_t seed);

struct TrainReport {
  std::size_t steps_run = 0;
  float final_loss = 0.0f;
  double final_accuracy = 0.0;  ///< mean accuracy across the task mix
};

/// Trains the row-major `weights` of a `model_config` model in place on a
/// uniform mixture of the given dataset generators. Each accuracy check
/// runs on a TransformerLM built from a copy of the weights; hand the
/// trained model over by building one from `weights` the same way.
/// `progress` (optional) receives (step, loss) for logging.
TrainReport train_model(
    const ModelConfig& model_config, ModelWeights& weights,
    const std::vector<const DatasetGenerator*>& tasks,
    const TrainerConfig& config,
    const std::function<void(std::size_t, float)>& progress = {});

}  // namespace ft2
