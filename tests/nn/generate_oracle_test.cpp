// Generate oracle: InferenceSession::generate against a naive loop.
//
// A solo generate is a one-request ServeEngine, so the engine suites that
// compare batched runs with solo runs check batching invariance, not the
// generation rules themselves. This file is the independent reference: it
// prefills one position at a time with forward_position and writes out the
// token choice (argmax or sample_from_logits), the EOS stop and the
// max_new_tokens / max_seq limits longhand, without decode_token, the
// engine or chunked prefill. Tokens, positions_run, hit_max and every hook
// dispatch must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

TransformerLM oracle_model() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = 40;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 40;
  Xoshiro256 rng(23);
  return TransformerLM(c, init_weights(c, rng));
}

/// Every value a chain observes, row by row: per site, the rows in the
/// order they arrive, each with its position, phase and bits. Chunked and
/// one-position prefill group rows into dispatches differently, but each
/// site must see the same rows in increasing position order either way.
class DispatchTrace : public OutputHook {
 public:
  struct Row {
    std::size_t position = 0;
    bool first_token_phase = false;
    std::vector<std::uint32_t> bits;
    bool operator==(const Row&) const = default;
  };
  using Key = std::pair<std::size_t, int>;  // (block, LayerKind)

  void on_output(const HookContext& ctx, std::span<float> values) override {
    auto& rows = by_site[{ctx.site.block, static_cast<int>(ctx.site.kind)}];
    for (std::size_t r = 0; r < ctx.n_positions; ++r) {
      const std::span<const float> row = ctx.row(
          std::span<const float>(values.data(), values.size()), r);
      Row out{ctx.position_at(r), ctx.first_token_phase,
              std::vector<std::uint32_t>(row.size())};
      std::memcpy(out.bits.data(), row.data(), row.size() * sizeof(float));
      rows.push_back(std::move(out));
    }
  }
  void on_generation_begin() override { ++begins; }
  void on_generation_end() override { ++ends; }

  std::map<Key, std::vector<Row>> by_site;
  int begins = 0;
  int ends = 0;
};

GenerateResult naive_generate(const TransformerLM& model,
                              std::span<const int> prompt,
                              const GenerateOptions& o,
                              const HookChain& hooks) {
  const ModelConfig& c = model.config();
  KvCache cache = model.make_cache();
  Workspace ws(c);
  std::vector<float> logits(c.vocab_size);
  const ExecConfig exec{o.fp16, o.chunked_accum, nullptr};
  GenerateResult result;
  hooks.begin();

  // Prefill: the prompt up to max_seq, one position at a time in the
  // first-token phase; only the last position runs the LM head.
  const std::size_t n_prompt = std::min(prompt.size(), c.max_seq);
  std::size_t pos = 0;
  for (; pos < n_prompt; ++pos) {
    const std::span<float> out =
        pos + 1 == n_prompt ? std::span<float>(logits) : std::span<float>{};
    model.forward_position(prompt[pos], pos, cache, hooks, exec,
                           /*first_token_phase=*/true, ws, out);
  }
  result.positions_run = pos;

  Xoshiro256 rng(o.sample_seed);
  for (std::size_t step = 0; step < o.max_new_tokens; ++step) {
    int next = 0;
    if (o.temperature > 0.0f) {
      next = sample_from_logits(logits, o.temperature, o.top_k, rng);
    } else {
      // The first maximum; a NaN never compares greater, so all-NaN logits
      // pick token 0.
      for (std::size_t v = 1; v < logits.size(); ++v) {
        if (logits[v] > logits[static_cast<std::size_t>(next)]) {
          next = static_cast<int>(v);
        }
      }
    }
    if (o.eos_token >= 0 && next == o.eos_token) break;  // EOS: not emitted
    result.tokens.push_back(next);
    if (step + 1 == o.max_new_tokens || pos >= c.max_seq) {
      result.hit_max = true;
      break;
    }
    model.forward_position(next, pos, cache, hooks, exec,
                           /*first_token_phase=*/false, ws, logits);
    ++pos;
    ++result.positions_run;
  }
  hooks.end();
  return result;
}

struct OracleRun {
  GenerateResult result;
  DispatchTrace trace;
};

OracleRun run_naive(const TransformerLM& model, std::span<const int> prompt,
                    const GenerateOptions& o) {
  OracleRun run;
  HookChain chain;
  const HookRegistration reg = chain.add(run.trace);
  run.result = naive_generate(model, prompt, o, chain);
  return run;
}

OracleRun run_session(const TransformerLM& model,
                      std::span<const int> prompt, const GenerateOptions& o) {
  OracleRun run;
  InferenceSession session(model);
  const HookRegistration reg = session.hooks().add(run.trace);
  run.result = session.generate(prompt, o);
  return run;
}

void expect_same(const OracleRun& want, const OracleRun& got) {
  EXPECT_EQ(got.result.tokens, want.result.tokens);
  EXPECT_EQ(got.result.positions_run, want.result.positions_run);
  EXPECT_EQ(got.result.hit_max, want.result.hit_max);
  EXPECT_FALSE(got.result.cancelled);
  EXPECT_EQ(got.trace.begins, 1);
  EXPECT_EQ(got.trace.ends, 1);
  EXPECT_EQ(want.trace.begins, 1);
  EXPECT_EQ(want.trace.ends, 1);
  ASSERT_EQ(got.trace.by_site.size(), want.trace.by_site.size());
  for (const auto& [site, rows] : want.trace.by_site) {
    const auto it = got.trace.by_site.find(site);
    ASSERT_NE(it, got.trace.by_site.end())
        << "block " << site.first << " kind " << site.second;
    EXPECT_TRUE(it->second == rows)
        << "block " << site.first << " kind " << site.second;
  }
}

std::vector<int> prompt_of(std::size_t n) {
  std::vector<int> prompt(n);
  for (std::size_t i = 0; i < n; ++i) {
    prompt[i] = static_cast<int>((7 * i + 3) % 37) + 1;
  }
  return prompt;
}

TEST(GenerateOracle, GreedyMatchesNaiveLoop) {
  const TransformerLM model = oracle_model();
  const std::vector<int> prompt = prompt_of(11);
  GenerateOptions o;
  o.max_new_tokens = 12;
  o.eos_token = -1;
  o.prefill_chunk = 4;  // chunks of 4, 4 and 3 against one at a time
  const OracleRun want = run_naive(model, prompt, o);
  ASSERT_EQ(want.result.tokens.size(), 12u);
  EXPECT_TRUE(want.result.hit_max);
  EXPECT_EQ(want.result.positions_run, 11u + 11u);
  expect_same(want, run_session(model, prompt, o));
}

TEST(GenerateOracle, SamplingMatchesNaiveLoop) {
  const TransformerLM model = oracle_model();
  const std::vector<int> prompt = prompt_of(9);
  GenerateOptions o;
  o.max_new_tokens = 10;
  o.eos_token = -1;
  o.temperature = 0.9f;
  o.top_k = 6;
  o.sample_seed = 5;
  const OracleRun want = run_naive(model, prompt, o);
  GenerateOptions greedy = o;
  greedy.temperature = 0.0f;
  ASSERT_NE(want.result.tokens, run_naive(model, prompt, greedy).result.tokens)
      << "sampling should leave the greedy path at this seed";
  expect_same(want, run_session(model, prompt, o));
}

TEST(GenerateOracle, EosStopMatchesNaiveLoop) {
  const TransformerLM model = oracle_model();
  const std::vector<int> prompt = prompt_of(8);
  GenerateOptions o;
  o.max_new_tokens = 12;
  o.eos_token = -1;
  const std::vector<int> free_run = run_naive(model, prompt, o).result.tokens;
  ASSERT_GE(free_run.size(), 4u);
  o.eos_token = free_run[3];
  const OracleRun want = run_naive(model, prompt, o);
  EXPECT_LE(want.result.tokens.size(), 3u);
  EXPECT_FALSE(want.result.hit_max);
  expect_same(want, run_session(model, prompt, o));
}

TEST(GenerateOracle, PromptCutAtMaxSeqMatchesNaiveLoop) {
  const TransformerLM model = oracle_model();
  const std::vector<int> prompt = prompt_of(model.config().max_seq + 5);
  GenerateOptions o;
  o.max_new_tokens = 0;
  o.eos_token = -1;
  const OracleRun want = run_naive(model, prompt, o);
  EXPECT_TRUE(want.result.tokens.empty());
  EXPECT_EQ(want.result.positions_run, model.config().max_seq);
  EXPECT_FALSE(want.result.hit_max);
  expect_same(want, run_session(model, prompt, o));

  // With tokens asked for, the one token sampled from the full window hits
  // the max_seq limit at once.
  o.max_new_tokens = 4;
  const OracleRun capped = run_naive(model, prompt, o);
  EXPECT_EQ(capped.result.tokens.size(), 1u);
  EXPECT_TRUE(capped.result.hit_max);
  expect_same(capped, run_session(model, prompt, o));
}

}  // namespace
}  // namespace ft2
