// Finite-difference validation of the manual backward pass, for every
// architecture family. This is the test that pins down the entire training
// stack: attention, RoPE, both norms, gated and plain MLPs, embeddings.
#include "train/backprop.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ft2 {
namespace {

ModelConfig grad_config(ArchFamily arch) {
  ModelConfig c;
  c.name = "gradcheck";
  c.arch = arch;
  c.vocab_size = 13;
  c.d_model = 8;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 10;
  c.max_seq = 12;
  switch (arch) {
    case ArchFamily::kOpt:
      break;
    case ArchFamily::kGptj:
      c.activation = Activation::kGelu;
      c.position = PositionKind::kRotary;
      c.parallel_block = true;
      break;
    case ArchFamily::kLlama:
      c.activation = Activation::kSilu;
      c.norm = NormKind::kRmsNorm;
      c.position = PositionKind::kRotary;
      c.linear_bias = false;
      c.qkv_bias = true;
      break;
  }
  return c;
}

TrainSequence test_sequence() {
  TrainSequence seq;
  seq.tokens = {1, 5, 9, 3, 7, 2};
  seq.loss_weight = {0.1f, 0.1f, 1.0f, 1.0f, 1.0f};
  return seq;
}

class GradCheckTest : public ::testing::TestWithParam<ArchFamily> {};

TEST_P(GradCheckTest, AnalyticMatchesFiniteDifference) {
  const ModelConfig config = grad_config(GetParam());
  Xoshiro256 rng(31);
  ModelWeights weights = init_weights(config, rng);
  const TrainSequence seq = test_sequence();

  GradStore grads(weights);
  const float loss = forward_backward(config, weights, seq, grads);
  EXPECT_GT(loss, 0.0f);
  EXPECT_TRUE(std::isfinite(loss));

  // Check a deterministic subsample of coordinates of every parameter.
  auto params = weights.named_parameters();
  const double eps = 1e-3;
  std::size_t checked = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& t = *params[p].second;
    const Tensor& g = grads.grad_at(p);
    const std::size_t stride = std::max<std::size_t>(1, t.numel() / 5);
    for (std::size_t i = 0; i < t.numel(); i += stride) {
      const float saved = t[i];
      t[i] = saved + static_cast<float>(eps);
      const double lp =
          static_cast<double>(forward_loss(config, weights, seq));
      t[i] = saved - static_cast<float>(eps);
      const double lm =
          static_cast<double>(forward_loss(config, weights, seq));
      t[i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = static_cast<double>(g[i]);
      const double tol = 2e-3 + 0.02 * std::abs(numeric);
      EXPECT_NEAR(analytic, numeric, tol)
          << params[p].first << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 50u);
}

TEST_P(GradCheckTest, ZeroWeightPositionsGetNoGradient) {
  const ModelConfig config = grad_config(GetParam());
  Xoshiro256 rng(5);
  ModelWeights weights = init_weights(config, rng);

  // All weights zero -> loss 0 and all grads 0.
  TrainSequence seq = test_sequence();
  seq.loss_weight.assign(seq.loss_weight.size(), 0.0f);
  GradStore grads(weights);
  const float loss = forward_backward(config, weights, seq, grads);
  EXPECT_EQ(loss, 0.0f);
  for (std::size_t p = 0; p < grads.size(); ++p) {
    for (float f : grads.grad_at(p).span()) EXPECT_EQ(f, 0.0f);
  }
}

TEST_P(GradCheckTest, GradientsAccumulateAcrossSequences) {
  const ModelConfig config = grad_config(GetParam());
  Xoshiro256 rng(6);
  ModelWeights weights = init_weights(config, rng);
  const TrainSequence seq = test_sequence();

  GradStore once(weights);
  forward_backward(config, weights, seq, once);
  GradStore twice(weights);
  forward_backward(config, weights, seq, twice);
  forward_backward(config, weights, seq, twice);

  for (std::size_t p = 0; p < once.size(); ++p) {
    const auto& g1 = once.grad_at(p);
    const auto& g2 = twice.grad_at(p);
    for (std::size_t i = 0; i < g1.numel(); ++i) {
      EXPECT_NEAR(g2[i], 2.0f * g1[i], 1e-5f + 1e-4f * std::fabs(g1[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchs, GradCheckTest,
                         ::testing::Values(ArchFamily::kOpt, ArchFamily::kGptj,
                                           ArchFamily::kLlama),
                         [](const auto& info) {
                           switch (info.param) {
                             case ArchFamily::kOpt: return "Opt";
                             case ArchFamily::kGptj: return "Gptj";
                             default: return "Llama";
                           }
                         });

TEST(GradStore, LookupAndNorms) {
  const ModelConfig config = grad_config(ArchFamily::kOpt);
  Xoshiro256 rng(2);
  ModelWeights weights = init_weights(config, rng);
  GradStore grads(weights);
  EXPECT_GT(grads.size(), 10u);
  EXPECT_EQ(grads.global_norm(), 0.0);

  Tensor& g = grads.grad(weights.tok_emb);
  g[0] = 3.0f;
  g[1] = 4.0f;
  EXPECT_NEAR(grads.global_norm(), 5.0, 1e-9);
  grads.scale(2.0f);
  EXPECT_NEAR(grads.global_norm(), 10.0, 1e-9);
  grads.zero();
  EXPECT_EQ(grads.global_norm(), 0.0);

  Tensor foreign({2, 2});
  EXPECT_THROW(grads.grad(foreign), Error);
}

}  // namespace
}  // namespace ft2
