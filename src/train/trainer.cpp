#include "train/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "data/matcher.hpp"

namespace ft2 {

TrainSequence make_train_sequence(const Sample& sample,
                                  float prompt_loss_weight) {
  TrainSequence seq;
  seq.tokens.push_back(Vocab::kBos);
  seq.tokens.insert(seq.tokens.end(), sample.prompt_tokens.begin(),
                    sample.prompt_tokens.end());
  const std::size_t answer_start = seq.tokens.size();
  seq.tokens.insert(seq.tokens.end(), sample.target_tokens.begin(),
                    sample.target_tokens.end());

  seq.loss_weight.assign(seq.tokens.size() - 1, prompt_loss_weight);
  // Position t predicts token t+1; answer tokens start at answer_start.
  for (std::size_t t = answer_start - 1; t + 1 < seq.tokens.size(); ++t) {
    seq.loss_weight[t] = 1.0f;
  }
  return seq;
}

double evaluate_accuracy(const TransformerLM& model,
                         const DatasetGenerator& gen, std::size_t n,
                         std::uint64_t seed, std::size_t max_new_tokens) {
  const auto samples = gen.generate_many(n, seed);
  InferenceSession session(model);
  GenerateOptions options;
  options.max_new_tokens = max_new_tokens;
  options.eos_token = Vocab::kEos;
  options.fp16 = true;

  std::size_t correct = 0;
  for (const auto& sample : samples) {
    const auto result = session.generate(prompt_with_bos(sample), options);
    const std::string text = Vocab::shared().decode(result.tokens);
    if (contains_reference(text, sample.reference)) ++correct;
  }
  return n == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(n);
}

double evaluate_perplexity(const ModelConfig& model_config,
                           const ModelWeights& weights,
                           const DatasetGenerator& gen, std::size_t n,
                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  double loss_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample sample = gen.generate(rng);
    TrainSequence seq = make_train_sequence(sample, 0.0f);
    loss_sum += static_cast<double>(forward_loss(model_config, weights, seq));
    ++count;
  }
  if (count == 0) return 0.0;
  return std::exp(loss_sum / static_cast<double>(count));
}

TrainReport train_model(
    const ModelConfig& model_config, ModelWeights& weights,
    const std::vector<const DatasetGenerator*>& tasks,
    const TrainerConfig& config,
    const std::function<void(std::size_t, float)>& progress) {
  FT2_CHECK(!tasks.empty());
  FT2_CHECK(config.task_weights.empty() ||
            config.task_weights.size() == tasks.size());
  std::vector<double> cumulative;
  if (!config.task_weights.empty()) {
    double total = 0.0;
    for (double w : config.task_weights) total += w;
    FT2_CHECK(total > 0.0);
    double acc = 0.0;
    for (double w : config.task_weights) {
      acc += w / total;
      cumulative.push_back(acc);
    }
  }
  GradStore grads(weights);
  Adam adam(weights, AdamConfig{});
  Xoshiro256 rng(config.seed);

  TrainReport report;
  float loss_ema = -1.0f;

  for (std::size_t step = 0; step < config.steps; ++step) {
    grads.zero();
    float loss_sum = 0.0f;
    for (std::size_t i = 0; i < config.batch_size; ++i) {
      std::size_t task_idx = rng.uniform(tasks.size());
      if (!cumulative.empty()) {
        const double u = rng.uniform_double();
        task_idx = 0;
        while (task_idx + 1 < cumulative.size() && u > cumulative[task_idx]) {
          ++task_idx;
        }
      }
      const auto* task = tasks[task_idx];
      const Sample sample = task->generate(rng);
      const TrainSequence seq =
          make_train_sequence(sample, config.prompt_loss_weight);
      loss_sum += forward_backward(model_config, weights, seq, grads);
    }
    grads.scale(1.0f / static_cast<float>(config.batch_size));

    const double norm = grads.global_norm();
    if (config.grad_clip > 0.0f && norm > config.grad_clip) {
      grads.scale(config.grad_clip / static_cast<float>(norm));
    }
    const float lr = lr_schedule(step, config.warmup_steps, config.steps,
                                 config.peak_lr);
    adam.step(grads, lr);

    const float loss = loss_sum / static_cast<float>(config.batch_size);
    loss_ema = loss_ema < 0.0f ? loss : 0.95f * loss_ema + 0.05f * loss;
    report.final_loss = loss_ema;
    report.steps_run = step + 1;
    if (progress) progress(step, loss);

    const bool check_now = config.eval_every > 0 &&
                           (step + 1) % config.eval_every == 0 &&
                           step + 1 >= config.min_steps;
    if (check_now) {
      const TransformerLM model(model_config, weights);
      double acc = 0.0;
      for (const auto* task : tasks) {
        acc += evaluate_accuracy(model, *task, config.eval_samples,
                                 /*seed=*/9000 + step);
      }
      acc /= static_cast<double>(tasks.size());
      report.final_accuracy = acc;
      if (acc >= config.target_accuracy) break;
    }
  }

  if (report.final_accuracy == 0.0) {
    const TransformerLM model(model_config, weights);
    double acc = 0.0;
    for (const auto* task : tasks) {
      acc += evaluate_accuracy(model, *task, config.eval_samples, 9999);
    }
    report.final_accuracy = acc / static_cast<double>(tasks.size());
  }
  return report;
}

}  // namespace ft2
