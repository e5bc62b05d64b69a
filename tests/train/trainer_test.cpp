#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ft2 {
namespace {

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize ||w - target||^2 for a single 1-D "model" parameter tensor by
  // driving Adam with hand-computed gradients.
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = 4;
  c.d_model = 4;
  c.n_heads = 1;
  c.n_blocks = 1;
  c.d_ff = 4;
  c.max_seq = 8;
  Xoshiro256 rng(1);
  ModelWeights w = init_weights(c, rng);
  GradStore grads(w);
  Adam adam(w, AdamConfig{.lr = 0.05f});

  const float target = 0.7f;
  for (int step = 0; step < 400; ++step) {
    grads.zero();
    Tensor& g = grads.grad(w.tok_emb);
    for (std::size_t i = 0; i < g.numel(); ++i) {
      g[i] = 2.0f * (w.tok_emb[i] - target);
    }
    adam.step(grads, 0.05f);
  }
  for (std::size_t i = 0; i < w.tok_emb.numel(); ++i) {
    EXPECT_NEAR(w.tok_emb[i], target, 0.02f);
  }
  EXPECT_EQ(adam.steps_taken(), 400u);
}

TEST(LrSchedule, WarmupPeakAndDecay) {
  const float peak = 1e-2f;
  EXPECT_LT(lr_schedule(0, 10, 100, peak), peak * 0.2f);
  EXPECT_NEAR(lr_schedule(9, 10, 100, peak), peak, 1e-6f);
  EXPECT_NEAR(lr_schedule(10, 10, 100, peak), peak, peak * 0.02f);
  // Decays monotonically after warmup.
  float prev = lr_schedule(10, 10, 100, peak);
  for (std::size_t s = 20; s <= 100; s += 10) {
    const float cur = lr_schedule(s, 10, 100, peak);
    EXPECT_LE(cur, prev + 1e-9f);
    prev = cur;
  }
  // Floor at 10% of peak.
  EXPECT_NEAR(lr_schedule(100, 10, 100, peak), peak * 0.1f, 1e-6f);
  EXPECT_NEAR(lr_schedule(500, 10, 100, peak), peak * 0.1f, 1e-6f);
}

TEST(Trainer, MakeTrainSequenceLayout) {
  Sample s;
  s.prompt_tokens = {10, 11, 12};
  s.target_tokens = {20, 21, Vocab::kEos};
  const TrainSequence seq = make_train_sequence(s, 0.1f);
  // <bos> 10 11 12 20 21 <eos>
  ASSERT_EQ(seq.tokens.size(), 7u);
  EXPECT_EQ(seq.tokens[0], Vocab::kBos);
  EXPECT_EQ(seq.tokens[4], 20);
  EXPECT_EQ(seq.tokens.back(), Vocab::kEos);
  ASSERT_EQ(seq.loss_weight.size(), 6u);
  // Positions 0..2 predict prompt tokens (weight 0.1); position 3 predicts
  // the first answer token (weight 1).
  EXPECT_FLOAT_EQ(seq.loss_weight[0], 0.1f);
  EXPECT_FLOAT_EQ(seq.loss_weight[2], 0.1f);
  EXPECT_FLOAT_EQ(seq.loss_weight[3], 1.0f);
  EXPECT_FLOAT_EQ(seq.loss_weight[5], 1.0f);
}

TEST(Trainer, LossDecreasesOnTinyTask) {
  ModelConfig c;
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 24;
  c.n_heads = 2;
  c.n_blocks = 1;
  c.d_ff = 32;
  c.max_seq = 96;
  Xoshiro256 rng(9);
  ModelWeights weights = init_weights(c, rng);

  const auto gen = make_generator(DatasetKind::kSynthQA);
  TrainerConfig tc;
  tc.steps = 120;
  tc.warmup_steps = 5;
  tc.peak_lr = 5e-3f;
  tc.batch_size = 4;
  tc.eval_every = 0;
  tc.eval_samples = 8;
  tc.seed = 3;

  float first_loss = -1.0f;
  std::vector<float> losses;
  const auto report = train_model(
      c, weights, {gen.get()}, tc, [&](std::size_t, float loss) {
        if (first_loss < 0.0f) first_loss = loss;
        losses.push_back(loss);
      });
  ASSERT_EQ(report.steps_run, 120u);
  // Average of last 10 losses well below the first loss.
  float tail = 0.0f;
  for (std::size_t i = losses.size() - 10; i < losses.size(); ++i) {
    tail += losses[i];
  }
  tail /= 10.0f;
  EXPECT_LT(tail, first_loss * 0.7f) << "first=" << first_loss
                                     << " tail=" << tail;
  EXPECT_TRUE(std::isfinite(report.final_loss));
}

}  // namespace
}  // namespace ft2
