// Property sweeps over every zoo architecture with random weights
// (training not needed: these are engine/protection invariants).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

class ZooConfigTest : public ::testing::TestWithParam<std::string> {
 protected:
  TransformerLM make_model() const {
    const ZooEntry& entry = zoo_entry(GetParam());
    Xoshiro256 rng(entry.seed);
    return TransformerLM(entry.config, init_weights(entry.config, rng));
  }
};

TEST_P(ZooConfigTest, HeuristicCriticalLayersMatchTable1) {
  const ZooEntry& entry = zoo_entry(GetParam());
  const auto crit = critical_layers(entry.config);
  // Every architecture: V_PROJ and OUT_PROJ critical, Q/K not.
  auto has = [&crit](LayerKind k) {
    return std::find(crit.begin(), crit.end(), k) != crit.end();
  };
  EXPECT_TRUE(has(LayerKind::kVProj));
  EXPECT_TRUE(has(LayerKind::kOutProj));
  EXPECT_FALSE(has(LayerKind::kQProj));
  EXPECT_FALSE(has(LayerKind::kKProj));
  if (entry.config.arch == ArchFamily::kLlama) {
    EXPECT_TRUE(has(LayerKind::kUpProj));
    EXPECT_TRUE(has(LayerKind::kDownProj));
    EXPECT_FALSE(has(LayerKind::kGateProj));
    EXPECT_EQ(crit.size(), 4u);
  } else {
    EXPECT_TRUE(has(LayerKind::kFc2));
    EXPECT_FALSE(has(LayerKind::kFc1));
    EXPECT_EQ(crit.size(), 3u);
  }
}

TEST_P(ZooConfigTest, GenerationDeterministicAndInRange) {
  const TransformerLM model = make_model();
  InferenceSession s1(model), s2(model);
  const std::vector<int> prompt = {Vocab::kBos, 10, 20, 30};
  GenerateOptions opts;
  opts.max_new_tokens = 12;
  const auto a = s1.generate(prompt, opts);
  const auto b = s2.generate(prompt, opts);
  EXPECT_EQ(a.tokens, b.tokens);
  for (int t : a.tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(static_cast<std::size_t>(t), model.config().vocab_size);
  }
}

TEST_P(ZooConfigTest, Fp16PathProducesOnlyRepresentableValues) {
  // Every hook observation must already lie exactly on the FP16 grid.
  class GridCheckHook : public OutputHook {
   public:
    void on_output(const HookContext&, std::span<float> values) override {
      for (float f : values) {
        if (std::isnan(f)) continue;
        if (quantize_f16(f) != f) ++violations;
      }
    }
    std::size_t violations = 0;
  };
  const TransformerLM model = make_model();
  InferenceSession session(model);
  GridCheckHook hook;
  const auto reg = session.hooks().add(hook);
  GenerateOptions opts;
  opts.max_new_tokens = 6;
  const std::vector<int> grid_prompt = {Vocab::kBos, 5, 6, 7};
  session.generate(grid_prompt, opts);
  EXPECT_EQ(hook.violations, 0u);
}

TEST_P(ZooConfigTest, FaultSiteSpaceConsistentWithHooks) {
  // The number of distinct (site, neuron) pairs the engine actually exposes
  // per position must equal the sampler's site space.
  class WidthSumHook : public OutputHook {
   public:
    void on_output(const HookContext& ctx, std::span<float> values) override {
      if (!ctx.contains_position(0)) return;
      if (!is_linear_layer(ctx.site.kind)) return;
      // Only position 0's row counts (a blocked dispatch may span more).
      sum += ctx.row(values, 0 - ctx.position).size();
    }
    std::size_t sum = 0;
  };
  const TransformerLM model = make_model();
  const FaultSiteSpace space(model.config());
  InferenceSession session(model);
  WidthSumHook hook;
  const auto reg = session.hooks().add(hook);
  GenerateOptions opts;
  opts.max_new_tokens = 1;
  const std::vector<int> width_prompt = {Vocab::kBos, 4};
  session.generate(width_prompt, opts);
  EXPECT_EQ(hook.sum, space.neurons_per_position());
}

TEST_P(ZooConfigTest, Ft2FaultFreeTransparency) {
  // With no faults, FT2 must never alter the generation (take-away #6 only
  // holds if scaled first-token bounds keep all benign decode values).
  const TransformerLM model = make_model();
  const auto gen = make_generator(DatasetKind::kSynthQA);
  Xoshiro256 rng(33);
  for (int i = 0; i < 3; ++i) {
    const Sample sample = gen->generate(rng);
    std::vector<int> prompt = {Vocab::kBos};
    prompt.insert(prompt.end(), sample.prompt_tokens.begin(),
                  sample.prompt_tokens.end());
    GenerateOptions opts;
    opts.max_new_tokens = 10;

    InferenceSession bare(model);
    const auto expected = bare.generate(prompt, opts);

    InferenceSession protected_session(model);
    Ft2Protector protector(model);
    protector.attach(protected_session);
    const auto got = protected_session.generate(prompt, opts);
    EXPECT_EQ(got.tokens, expected.tokens) << GetParam() << " sample " << i;
  }
}

TEST_P(ZooConfigTest, ChunkedAccumulationStaysClose) {
  // The Fig. 16 execution-config knob must be a rounding-level change only.
  const TransformerLM model = make_model();
  KvCache c1 = model.make_cache();
  KvCache c2 = model.make_cache();
  Workspace ws(model.config());
  HookChain hooks;
  std::vector<float> seq(model.config().vocab_size);
  std::vector<float> chunked(model.config().vocab_size);
  model.forward_position(3, 0, c1, hooks, ExecConfig{false, false}, true, ws,
                         seq);
  model.forward_position(3, 0, c2, hooks, ExecConfig{false, true}, true, ws,
                         chunked);
  for (std::size_t v = 0; v < seq.size(); ++v) {
    EXPECT_NEAR(seq[v], chunked[v], 1e-3f) << v;
  }
}

TEST_P(ZooConfigTest, CheckpointRoundTripPreservesGeneration) {
  const TransformerLM model = make_model();
  const std::string path =
      (std::filesystem::temp_directory_path() / (GetParam() + "_prop.ft2m"))
          .string();
  save_checkpoint(path, model.config(), model.export_weights());
  ModelConfig config;
  ModelWeights weights;
  load_checkpoint(path, config, weights);
  const TransformerLM reloaded(config, std::move(weights));

  InferenceSession s1(model), s2(reloaded);
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  const std::vector<int> prompt = {Vocab::kBos, 9, 8, 7};
  EXPECT_EQ(s1.generate(prompt, opts).tokens,
            s2.generate(prompt, opts).tokens);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllZooModels, ZooConfigTest,
    ::testing::Values("opt-sm", "opt-xs", "gptj-sm", "llama-sm", "vicuna-sm",
                      "qwen2-sm", "qwen2-xs"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ft2
