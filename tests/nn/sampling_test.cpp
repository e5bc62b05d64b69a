// Temperature / top-k sampling decode.
#include <gtest/gtest.h>

#include <set>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = 40;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 1;
  c.d_ff = 24;
  c.max_seq = 64;
  Xoshiro256 rng(14);
  return TransformerLM(c, init_weights(c, rng));
}

TEST(Sampling, GreedyIsDefaultAndDeterministic) {
  const TransformerLM model = micro_model();
  InferenceSession s(model);
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  const auto a = s.generate(std::vector<int>{1, 2, 3}, opts);
  const auto b = s.generate(std::vector<int>{1, 2, 3}, opts);
  EXPECT_EQ(a.tokens, b.tokens);
}

TEST(Sampling, SameSeedSameSample) {
  const TransformerLM model = micro_model();
  InferenceSession s(model);
  GenerateOptions opts;
  opts.max_new_tokens = 12;
  opts.temperature = 1.0f;
  opts.sample_seed = 99;
  const auto a = s.generate(std::vector<int>{1, 2, 3}, opts);
  const auto b = s.generate(std::vector<int>{1, 2, 3}, opts);
  EXPECT_EQ(a.tokens, b.tokens);
}

TEST(Sampling, DifferentSeedsDiverge) {
  const TransformerLM model = micro_model();
  InferenceSession s(model);
  GenerateOptions opts;
  opts.max_new_tokens = 16;
  opts.temperature = 2.0f;  // hot enough that divergence is near-certain
  opts.sample_seed = 1;
  const auto a = s.generate(std::vector<int>{1, 2, 3}, opts);
  opts.sample_seed = 2;
  const auto b = s.generate(std::vector<int>{1, 2, 3}, opts);
  EXPECT_NE(a.tokens, b.tokens);
}

TEST(Sampling, LowTemperatureApproachesGreedy) {
  const TransformerLM model = micro_model();
  InferenceSession s(model);
  GenerateOptions greedy;
  greedy.max_new_tokens = 10;
  const auto g = s.generate(std::vector<int>{5, 6}, greedy);

  GenerateOptions cold = greedy;
  cold.temperature = 1e-4f;
  const auto c = s.generate(std::vector<int>{5, 6}, cold);
  EXPECT_EQ(g.tokens, c.tokens);
}

TEST(Sampling, TopOneEqualsGreedy) {
  const TransformerLM model = micro_model();
  InferenceSession s(model);
  GenerateOptions greedy;
  greedy.max_new_tokens = 10;
  const auto g = s.generate(std::vector<int>{7, 8, 9}, greedy);

  GenerateOptions top1 = greedy;
  top1.temperature = 3.0f;
  top1.top_k = 1;
  const auto t = s.generate(std::vector<int>{7, 8, 9}, top1);
  EXPECT_EQ(g.tokens, t.tokens);
}

TEST(Sampling, HighTemperatureExploresVocab) {
  const TransformerLM model = micro_model();
  InferenceSession s(model);
  GenerateOptions opts;
  opts.max_new_tokens = 30;
  opts.temperature = 50.0f;  // near-uniform
  std::set<int> seen;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    opts.sample_seed = seed;
    for (int t : s.generate(std::vector<int>{1}, opts).tokens) seen.insert(t);
  }
  // Near-uniform sampling over 40 tokens for 150 draws covers most of them.
  EXPECT_GT(seen.size(), 20u);
}

TEST(Sampling, CrossRunDeterminismUnderSessionAndServePaths) {
  // The same seeded sampling request must yield one token stream across
  // repeated runs of BOTH decode paths — per-session generate and the
  // batched serve engine — and the two paths must agree with each other.
  const TransformerLM model = micro_model();
  const std::vector<int> prompt{1, 2, 3, 4};
  GenerateOptions opts;
  opts.max_new_tokens = 12;
  opts.temperature = 0.9f;
  opts.top_k = 5;
  opts.sample_seed = 77;

  std::vector<int> session_tokens;
  for (int run = 0; run < 2; ++run) {
    InferenceSession s(model);
    const auto result = s.generate(prompt, opts);
    if (run == 0) {
      session_tokens = result.tokens;
      ASSERT_FALSE(session_tokens.empty());
    } else {
      EXPECT_EQ(result.tokens, session_tokens) << "session run " << run;
    }
  }

  for (int run = 0; run < 2; ++run) {
    ServeEngine engine(model);
    // A second request with a different seed shares the batch, exercising
    // per-request RNG isolation.
    const RequestId id = engine.submit(prompt, opts);
    GenerateOptions other = opts;
    other.sample_seed = 78;
    other.top_k = 4;
    const RequestId decoy = engine.submit(prompt, other);
    engine.run();
    EXPECT_EQ(engine.result(id).tokens, session_tokens) << "serve run " << run;
    EXPECT_NE(engine.result(decoy).tokens, session_tokens);
  }
}

TEST(Perplexity, TrainedModelBeatsRandom) {
  // A briefly-trained model must have lower answer perplexity than a
  // random-weight model of the same shape.
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 24;
  c.n_heads = 2;
  c.n_blocks = 1;
  c.d_ff = 32;
  c.max_seq = 96;
  Xoshiro256 rng(15);
  ModelWeights weights = init_weights(c, rng);
  const auto gen = make_generator(DatasetKind::kSynthQA);

  const double before = evaluate_perplexity(c, weights, *gen, 16, 5);
  TrainerConfig tc;
  tc.steps = 60;
  tc.warmup_steps = 5;
  tc.eval_every = 0;
  train_model(c, weights, {gen.get()}, tc);
  const double after = evaluate_perplexity(c, weights, *gen, 16, 5);
  EXPECT_LT(after, before * 0.8);
  EXPECT_GT(after, 1.0);
}

}  // namespace
}  // namespace ft2
