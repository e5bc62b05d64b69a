// Inference-engine behaviour: determinism, hook dispatch, KV-cache
// consistency against the independent training-path forward, generation.
#include "nn/model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>

#include "numeric/f16.hpp"
#include "train/backprop.hpp"
#include "zoo/zoo.hpp"

namespace ft2 {
namespace {

ModelConfig micro_config(ArchFamily arch) {
  ModelConfig c;
  c.name = "micro";
  c.arch = arch;
  c.vocab_size = 23;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 32;
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

TransformerLM make_model(ArchFamily arch, std::uint64_t seed = 7) {
  ModelConfig c = micro_config(arch);
  Xoshiro256 rng(seed);
  return TransformerLM(c, init_weights(c, rng));
}

class CountingHook : public OutputHook {
 public:
  void on_output(const HookContext& ctx, std::span<float> values) override {
    // Blocked prefill dispatches once per chunk; count positions, not calls.
    const int n = static_cast<int>(ctx.n_positions);
    counts_[static_cast<int>(ctx.site.kind)] += n;
    last_sizes_[static_cast<int>(ctx.site.kind)] = ctx.width(values.size());
    if (ctx.first_token_phase) first_token_calls_ += n;
    total_ += n;
  }
  void on_generation_begin() override { ++begins_; }
  void on_generation_end() override { ++ends_; }

  std::map<int, int> counts_;
  std::map<int, std::size_t> last_sizes_;
  int total_ = 0;
  int begins_ = 0;
  int ends_ = 0;
  int first_token_calls_ = 0;
};

class ModelArchTest : public ::testing::TestWithParam<ArchFamily> {};

TEST_P(ModelArchTest, GenerationIsDeterministic) {
  const TransformerLM model = make_model(GetParam());
  InferenceSession s1(model), s2(model);
  const std::vector<int> prompt = {1, 5, 9, 3};
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  const auto r1 = s1.generate(prompt, opts);
  const auto r2 = s2.generate(prompt, opts);
  EXPECT_EQ(r1.tokens, r2.tokens);
  EXPECT_EQ(r1.tokens.size(), 8u);
}

TEST_P(ModelArchTest, SessionIsReusable) {
  const TransformerLM model = make_model(GetParam());
  InferenceSession session(model);
  const std::vector<int> prompt = {2, 4, 6};
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  const auto r1 = session.generate(prompt, opts);
  const auto r2 = session.generate(prompt, opts);
  EXPECT_EQ(r1.tokens, r2.tokens);
}

TEST_P(ModelArchTest, HooksFireForEveryLinearAtEveryPosition) {
  const TransformerLM model = make_model(GetParam());
  const ModelConfig& cfg = model.config();
  InferenceSession session(model);
  CountingHook hook;
  const auto reg = session.hooks().add(hook);

  const std::vector<int> prompt = {1, 2, 3, 4, 5};
  GenerateOptions opts;
  opts.max_new_tokens = 3;
  const auto result = session.generate(prompt, opts);

  const auto positions = static_cast<int>(result.positions_run);
  for (LayerKind kind : cfg.block_layers()) {
    const int expected = positions * static_cast<int>(cfg.n_blocks);
    EXPECT_EQ(hook.counts_[static_cast<int>(kind)], expected)
        << layer_kind_name(kind);
    EXPECT_EQ(hook.last_sizes_[static_cast<int>(kind)],
              cfg.layer_output_dim(kind))
        << layer_kind_name(kind);
  }
  EXPECT_EQ(hook.begins_, 1);
  EXPECT_EQ(hook.ends_, 1);
  // First-token phase = the 5 prompt positions.
  const int sites_per_pos = static_cast<int>(cfg.block_layers().size() *
                                             cfg.n_blocks);
  EXPECT_EQ(hook.first_token_calls_, 5 * sites_per_pos);
}

TEST_P(ModelArchTest, IncrementalMatchesBatchedForwardInFp32) {
  // The KV-cache incremental engine and the training-path batched forward
  // are independent implementations; in FP32 mode they must agree.
  const TransformerLM model = make_model(GetParam());
  const std::vector<int> tokens = {1, 7, 2, 9, 4, 11};

  const Tensor batched =
      forward_logits(model.config(), model.export_weights(), tokens);

  KvCache cache = model.make_cache();
  Workspace ws(model.config());
  HookChain hooks;
  std::vector<float> logits(model.config().vocab_size);
  for (std::size_t pos = 0; pos < tokens.size(); ++pos) {
    model.forward_position(tokens[pos], pos, cache, hooks, ExecConfig{false},
                           /*first_token_phase=*/true, ws, logits);
    for (std::size_t v = 0; v < logits.size(); ++v) {
      EXPECT_NEAR(logits[v], batched.at(pos, v), 2e-4f)
          << "pos=" << pos << " v=" << v;
    }
  }
}

TEST_P(ModelArchTest, Fp16ModeQuantizesButStaysClose) {
  const TransformerLM model = make_model(GetParam());
  KvCache c16 = model.make_cache();
  KvCache c32 = model.make_cache();
  Workspace ws(model.config());
  HookChain hooks;
  std::vector<float> l16(model.config().vocab_size);
  std::vector<float> l32(model.config().vocab_size);
  model.forward_position(3, 0, c16, hooks, ExecConfig{true}, true, ws, l16);
  model.forward_position(3, 0, c32, hooks, ExecConfig{false}, true, ws, l32);
  for (std::size_t v = 0; v < l16.size(); ++v) {
    EXPECT_NEAR(l16[v], l32[v], 0.05f) << v;
  }
}

TEST_P(ModelArchTest, EosStopsGeneration) {
  const TransformerLM model = make_model(GetParam());
  InferenceSession session(model);
  GenerateOptions opts;
  opts.max_new_tokens = 20;
  const std::vector<int> prompt = {1, 2};
  const auto free_run = session.generate(prompt, opts);
  ASSERT_EQ(free_run.tokens.size(), 20u);

  // Use the first generated token as "EOS": generation must stop before it.
  opts.eos_token = free_run.tokens[0];
  const auto stopped = session.generate(prompt, opts);
  EXPECT_TRUE(stopped.tokens.empty());
}

TEST_P(ModelArchTest, HookMutationReachesTheLogits) {
  // A hook that perturbs V_PROJ outputs must change the logits — proves
  // hooks see live (not copied) data that feeds downstream computation.
  class BumpVHook : public OutputHook {
   public:
    void on_output(const HookContext& ctx, std::span<float> values) override {
      if (ctx.site.kind == LayerKind::kVProj) {
        for (float& f : values) f += 5.0f;
      }
    }
  };
  const TransformerLM model = make_model(GetParam());
  KvCache c1 = model.make_cache();
  KvCache c2 = model.make_cache();
  Workspace ws(model.config());
  std::vector<float> base(model.config().vocab_size);
  std::vector<float> bumped(model.config().vocab_size);

  HookChain plain;
  model.forward_position(3, 0, c1, plain, ExecConfig{true}, true, ws, base);

  BumpVHook hook;
  HookChain chain;
  const auto reg = chain.add(hook);
  model.forward_position(3, 0, c2, chain, ExecConfig{true}, true, ws, bumped);

  float diff = 0.0f;
  for (std::size_t v = 0; v < base.size(); ++v) {
    diff += std::fabs(base[v] - bumped[v]);
  }
  EXPECT_GT(diff, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, ModelArchTest,
                         ::testing::Values(ArchFamily::kOpt, ArchFamily::kGptj,
                                           ArchFamily::kLlama),
                         [](const auto& info) {
                           switch (info.param) {
                             case ArchFamily::kOpt: return "Opt";
                             case ArchFamily::kGptj: return "Gptj";
                             default: return "Llama";
                           }
                         });

TEST(Model, RejectsBadTokensAndPositions) {
  const TransformerLM model = make_model(ArchFamily::kOpt);
  KvCache cache = model.make_cache();
  Workspace ws(model.config());
  HookChain hooks;
  std::vector<float> logits(model.config().vocab_size);
  EXPECT_THROW(model.forward_position(-1, 0, cache, hooks, ExecConfig{true},
                                      true, ws, logits),
               Error);
  EXPECT_THROW(model.forward_position(1000, 0, cache, hooks, ExecConfig{true},
                                      true, ws, logits),
               Error);
  // Position must equal cache length.
  EXPECT_THROW(model.forward_position(1, 3, cache, hooks, ExecConfig{true},
                                      true, ws, logits),
               Error);
}

TEST(Model, WorkspaceShapes) {
  const ModelConfig c = micro_config(ArchFamily::kLlama);
  Workspace ws(c);
  EXPECT_EQ(ws.x.dim(1), c.d_model);
  EXPECT_EQ(ws.f1.dim(1), c.d_ff);
  // One [n_heads][len] score block per attention task; a fresh workspace
  // holds one task's row.
  EXPECT_EQ(ws.scores.dim(0), 1u);
  EXPECT_EQ(ws.scores.dim(1), c.n_heads * c.max_seq);
}

TEST(Model, ParameterCountsDifferByArch) {
  const auto opt = make_model(ArchFamily::kOpt);
  const auto llama = make_model(ArchFamily::kLlama);
  // Llama has a third MLP matrix but no biases/pos-emb; both positive.
  EXPECT_GT(parameter_count(opt.config()), 0u);
  EXPECT_GT(parameter_count(llama.config()), 0u);
  EXPECT_NE(parameter_count(opt.config()), parameter_count(llama.config()));
}

/// Byte offset of `p` past the last 64-byte boundary.
std::uintptr_t cache_line_offset(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64;
}

void expect_cache_line_aligned(const PackedLinear& pl, const char* what) {
  EXPECT_EQ(cache_line_offset(pl.tiles.data()), 0u) << what << " tiles";
  EXPECT_EQ(cache_line_offset(pl.bias.data()), 0u) << what << " bias";
}

TEST(Model, PackedLinearsStartOnACacheLine) {
  // The GEMM's vector tile loads split a cache line whenever a buffer
  // starts off a 64-byte boundary, which a plain vector leaves to the
  // allocator (a large one lands at 16 mod 64 on glibc).
  for (const ArchFamily arch : {ArchFamily::kOpt, ArchFamily::kLlama}) {
    const TransformerLM model = make_model(arch);
    const char* what = arch == ArchFamily::kOpt ? "opt" : "llama";
    const PackedDecodeWeights& w = model.tiles();
    for (const PackedDecodeWeights::Block& b : w.blocks) {
      for (const PackedLinear* pl :
           {&b.q, &b.k, &b.v, &b.o, &b.fc1, &b.up, &b.fc2}) {
        expect_cache_line_aligned(*pl, what);
      }
    }
    expect_cache_line_aligned(w.lm_head, what);
  }
  Tensor weight({384, 128});
  const std::vector<float> bias(384, 0.5f);
  expect_cache_line_aligned(PackedLinear(weight, bias), "384x128");
}

/// True when `v` is its own binary16 rounding, bit for bit.
bool on_f16_grid(float v) {
  return std::bit_cast<std::uint32_t>(quantize_f16(v)) ==
         std::bit_cast<std::uint32_t>(v);
}

TEST(Model, EveryParameterIsOnTheBinary16Grid) {
  // One zoo config per architecture family: OPT, GPT-J, Llama and Qwen2
  // (Llama with QKV biases). init_weights draws on the grid; weights
  // pushed off it are rounded by the constructor, to nearest even; the
  // tiles hold binary16 patterns that widen back to those values.
  for (const char* name : {"opt-sm", "gptj-sm", "llama-sm", "qwen2-xs"}) {
    SCOPED_TRACE(name);
    const ModelConfig& c = zoo_entry(name).config;
    Xoshiro256 rng(5);
    ModelWeights drawn = init_weights(c, rng);
    for (const auto& [param, t] : drawn.named_parameters()) {
      for (const float v : t->span()) {
        ASSERT_TRUE(on_f16_grid(v)) << param << " drew " << v;
      }
    }
    ModelWeights off = drawn;
    for (const auto& [param, t] : off.named_parameters()) {
      for (float& v : t->span()) v = v * 1.0003f + 1e-6f;
    }
    const TransformerLM model(c, off);
    const ModelWeights exported = model.export_weights();
    const auto want = off.named_parameters();
    const auto got = exported.named_parameters();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
      ASSERT_EQ(want[p].first, got[p].first);
      const auto w = want[p].second->span();
      const auto g = got[p].second->span();
      ASSERT_EQ(w.size(), g.size()) << want[p].first;
      for (std::size_t i = 0; i < w.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(g[i]),
                  std::bit_cast<std::uint32_t>(quantize_f16(w[i])))
            << want[p].first << "[" << i << "]";
      }
    }
    const PackedDecodeWeights& tiles = model.tiles();
    std::vector<const PackedLinear*> linears = {&tiles.lm_head};
    for (const PackedDecodeWeights::Block& b : tiles.blocks) {
      for (const PackedLinear* pl :
           {&b.q, &b.k, &b.v, &b.o, &b.fc1, &b.up, &b.fc2}) {
        linears.push_back(pl);
      }
    }
    for (const PackedLinear* pl : linears) {
      for (const std::uint16_t h : pl->tiles) {
        ASSERT_TRUE(on_f16_grid(f16::from_bits(h).to_float()));
        ASSERT_EQ(f16::from_float(f16::from_bits(h).to_float()).bits(), h);
      }
      for (const float b : pl->bias) ASSERT_TRUE(on_f16_grid(b));
    }
  }
}

}  // namespace
}  // namespace ft2
