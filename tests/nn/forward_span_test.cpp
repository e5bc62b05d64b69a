// Chunk-size invariance of the blocked prefill (forward_span), with
// position-at-a-time forward_position runs as the baseline. Both run the
// same engine; tests/nn/forward_oracle_test.cpp is the independent
// reference. The guarantees:
//   - identical last-position logits and interchangeable KV caches for any
//     chunk split, any ExecConfig (fp16 x chunked_accum) and any pool size;
//   - hooks observe each site's rows with the same values, in the same
//     position order, as position-at-a-time runs;
//   - fault-injection campaign outcomes are invariant to the chunk size.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model(ArchFamily arch) {
  ModelConfig c;
  c.arch = arch;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 24;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 32;
  c.max_seq = 96;
  switch (arch) {
    case ArchFamily::kOpt:
      c.activation = Activation::kRelu;
      c.norm = NormKind::kLayerNorm;
      c.position = PositionKind::kLearned;
      c.linear_bias = true;
      break;
    case ArchFamily::kGptj:
      c.activation = Activation::kGelu;
      c.norm = NormKind::kLayerNorm;
      c.position = PositionKind::kRotary;
      c.parallel_block = true;
      c.linear_bias = true;
      break;
    case ArchFamily::kLlama:
      c.activation = Activation::kSilu;
      c.norm = NormKind::kRmsNorm;
      c.position = PositionKind::kRotary;
      c.linear_bias = false;
      break;
  }
  Xoshiro256 rng(41);
  return TransformerLM(c, init_weights(c, rng));
}

std::vector<int> micro_prompt(const TransformerLM& model, std::size_t n) {
  std::vector<int> prompt = {Vocab::kBos};
  const int vocab = static_cast<int>(model.config().vocab_size);
  for (std::size_t i = 1; i < n; ++i) {
    prompt.push_back(static_cast<int>(i * 7 + 3) % vocab);
  }
  return prompt;
}

/// Prefill logits + one decode step on top of the resulting cache. The
/// decode step reads every cached K/V, so bitwise-equal decode logits imply
/// the two prefill paths left interchangeable caches behind.
struct RunOutput {
  std::vector<float> prefill_logits;
  std::vector<float> decode_logits;
};

RunOutput run_sequential(const TransformerLM& model,
                         const std::vector<int>& prompt,
                         const ExecConfig& exec, const HookChain& hooks) {
  KvCache cache = model.make_cache();
  Workspace ws(model.config());
  RunOutput out;
  out.prefill_logits.resize(model.config().vocab_size);
  for (std::size_t p = 0; p < prompt.size(); ++p) {
    model.forward_position(prompt[p], p, cache, hooks, exec, true, ws,
                           out.prefill_logits);
  }
  out.decode_logits.resize(model.config().vocab_size);
  model.forward_position(7, prompt.size(), cache, hooks, exec, false, ws,
                         out.decode_logits);
  return out;
}

RunOutput run_blocked(const TransformerLM& model,
                      const std::vector<int>& prompt, std::size_t chunk,
                      const ExecConfig& exec, const HookChain& hooks) {
  KvCache cache = model.make_cache();
  Workspace ws(model.config());
  RunOutput out;
  out.prefill_logits.resize(model.config().vocab_size);
  const std::span<const int> tokens(prompt);
  const std::size_t n = prompt.size();
  const std::size_t step = chunk == 0 ? n : chunk;
  for (std::size_t p = 0; p < n; p += step) {
    const std::size_t take = std::min(step, n - p);
    const bool last = p + take == n;
    model.forward_span(tokens.subspan(p, take), p, cache, hooks, exec, true,
                       ws,
                       last ? std::span<float>(out.prefill_logits)
                            : std::span<float>{});
  }
  out.decode_logits.resize(model.config().vocab_size);
  model.forward_position(7, n, cache, hooks, exec, false, ws,
                         out.decode_logits);
  return out;
}

TEST(ForwardSpan, BitExactAcrossExecConfigsAndChunkSizes) {
  for (ArchFamily arch :
       {ArchFamily::kOpt, ArchFamily::kGptj, ArchFamily::kLlama}) {
    const TransformerLM model = micro_model(arch);
    const auto prompt = micro_prompt(model, 13);
    HookChain no_hooks;
    for (bool fp16 : {false, true}) {
      for (bool chunked_accum : {false, true}) {
        const ExecConfig exec{fp16, chunked_accum};
        const RunOutput ref = run_sequential(model, prompt, exec, no_hooks);
        // 2 and 5 exercise ragged tails (13 % chunk != 0, including a
        // final 1-wide chunk); 0 runs the whole prompt as one GEMM.
        for (std::size_t chunk : {std::size_t{2}, std::size_t{5},
                                  std::size_t{0}}) {
          const RunOutput got =
              run_blocked(model, prompt, chunk, exec, no_hooks);
          EXPECT_EQ(got.prefill_logits, ref.prefill_logits)
              << "arch " << static_cast<int>(arch) << " fp16=" << fp16
              << " chunked_accum=" << chunked_accum << " chunk=" << chunk;
          EXPECT_EQ(got.decode_logits, ref.decode_logits)
              << "KV cache diverged: arch " << static_cast<int>(arch)
              << " fp16=" << fp16 << " chunked_accum=" << chunked_accum
              << " chunk=" << chunk;
        }
      }
    }
  }
}

TEST(ForwardSpan, PoolSizeNeverChangesResults) {
  const TransformerLM model = micro_model(ArchFamily::kLlama);
  const auto prompt = micro_prompt(model, 17);
  HookChain no_hooks;
  const RunOutput ref =
      run_sequential(model, prompt, ExecConfig{true, false}, no_hooks);
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {&one, &four}) {
    const ExecConfig exec{true, false, pool};
    const RunOutput got = run_blocked(model, prompt, 8, exec, no_hooks);
    EXPECT_EQ(got.prefill_logits, ref.prefill_logits)
        << "pool size " << pool->size();
    EXPECT_EQ(got.decode_logits, ref.decode_logits)
        << "pool size " << pool->size();
  }
}

/// Expands every dispatch into per-position rows, grouped by layer site.
class SiteRecorder : public OutputHook {
 public:
  struct Observation {
    std::size_t position;
    bool first_token;
    std::vector<float> values;

    bool operator==(const Observation&) const = default;
  };
  using Key = std::pair<int, int>;  // (block, LayerKind)

  void on_output(const HookContext& ctx, std::span<float> values) override {
    auto& seq = by_site_[{ctx.site.block, static_cast<int>(ctx.site.kind)}];
    for (std::size_t r = 0; r < ctx.n_positions; ++r) {
      const auto row = ctx.row(values, r);
      seq.push_back({ctx.position_at(r), ctx.first_token_phase,
                     std::vector<float>(row.begin(), row.end())});
    }
  }

  const std::map<Key, std::vector<Observation>>& by_site() const {
    return by_site_;
  }

 private:
  std::map<Key, std::vector<Observation>> by_site_;
};

TEST(ForwardSpan, HooksObserveSameRowsInSamePerSiteOrder) {
  for (ArchFamily arch : {ArchFamily::kOpt, ArchFamily::kLlama}) {
    const TransformerLM model = micro_model(arch);
    const auto prompt = micro_prompt(model, 11);
    GenerateOptions opts;
    opts.max_new_tokens = 4;
    opts.eos_token = -1;

    SiteRecorder sequential;
    {
      InferenceSession session(model);
      const auto reg = session.hooks().add(sequential);
      GenerateOptions seq_opts = opts;
      seq_opts.prefill_chunk = 1;
      session.generate(prompt, seq_opts);
    }
    SiteRecorder blocked;
    {
      InferenceSession session(model);
      const auto reg = session.hooks().add(blocked);
      GenerateOptions blk_opts = opts;
      blk_opts.prefill_chunk = 4;
      session.generate(prompt, blk_opts);
    }

    ASSERT_FALSE(sequential.by_site().empty());
    ASSERT_EQ(sequential.by_site().size(), blocked.by_site().size());
    for (const auto& [site, seq_obs] : sequential.by_site()) {
      const auto it = blocked.by_site().find(site);
      ASSERT_NE(it, blocked.by_site().end())
          << "site (" << site.first << ", " << site.second
          << ") missing from blocked run";
      const auto& blk_obs = it->second;
      ASSERT_EQ(seq_obs.size(), blk_obs.size());
      for (std::size_t i = 0; i < seq_obs.size(); ++i) {
        EXPECT_EQ(seq_obs[i], blk_obs[i])
            << "site (" << site.first << ", " << site.second << ") row " << i;
        if (i > 0) {
          EXPECT_LT(blk_obs[i - 1].position, blk_obs[i].position);
        }
      }
    }
  }
}

TEST(ForwardSpan, GenerateTokensIndependentOfChunkAndPool) {
  const TransformerLM model = micro_model(ArchFamily::kGptj);
  const auto prompt = micro_prompt(model, 14);
  ThreadPool pool(3);
  GenerateOptions base;
  base.max_new_tokens = 8;
  base.eos_token = -1;

  for (bool fp16 : {false, true}) {
    GenerateOptions ref_opts = base;
    ref_opts.fp16 = fp16;
    ref_opts.prefill_chunk = 1;
    InferenceSession ref_session(model);
    const auto ref = ref_session.generate(prompt, ref_opts);

    for (std::size_t chunk : {std::size_t{3}, std::size_t{32}, std::size_t{0}}) {
      GenerateOptions opts = ref_opts;
      opts.prefill_chunk = chunk;
      opts.pool = &pool;
      InferenceSession session(model);
      const auto got = session.generate(prompt, opts);
      EXPECT_EQ(got.tokens, ref.tokens) << "fp16=" << fp16
                                        << " chunk=" << chunk;
      EXPECT_EQ(got.positions_run, ref.positions_run);
    }
  }
}

/// Outcome counts of `config`'s trials replayed by hand: each trial's
/// fault plans from the campaign's per-trial Philox stream, an injector
/// per plan ahead of the scheme's protection hook, and a fixed-length
/// generate with the given prefill chunk.
CampaignResult hand_campaign(const TransformerLM& model,
                             const std::vector<EvalInput>& inputs,
                             const SchemeSpec& spec,
                             const CampaignConfig& config,
                             std::size_t prefill_chunk) {
  const FaultSiteSpace space(model.config());
  GenerateOptions opts = fixed_length_options(config.gen_tokens, config.vtype);
  opts.prefill_chunk = prefill_chunk;
  InferenceSession session(model);
  CampaignResult result;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t t = 0; t < config.trials_per_input; ++t) {
      PhiloxStream rng(config.seed, i * config.trials_per_input + t);
      InjectorHook injector(space.sample(inputs[i].prompt.size(),
                                         config.gen_tokens,
                                         config.fault_model, config.vtype,
                                         rng));
      ProtectionHook protection(model.config(), spec, BoundStore{});
      const HookRegistration inject = session.hooks().add(injector);
      const HookRegistration protect = session.hooks().add(protection);
      const GenerateResult out = session.generate(inputs[i].prompt, opts);
      ++result.trials;
      switch (injector.fired() ? classify_outcome(out.tokens, inputs[i])
                               : Outcome::kNotInjected) {
        case Outcome::kMaskedIdentical: ++result.masked_identical; break;
        case Outcome::kMaskedSemantic: ++result.masked_semantic; break;
        case Outcome::kSdc: ++result.sdc; break;
        case Outcome::kNotInjected: ++result.not_injected; break;
      }
    }
  }
  return result;
}

TEST(ForwardSpan, CampaignOutcomesIndependentOfPrefillChunk) {
  const TransformerLM model = micro_model(ArchFamily::kOpt);
  const auto gen = make_generator(DatasetKind::kSynthQA);
  const auto samples = gen->generate_many(6, 2024);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  ASSERT_FALSE(inputs.empty());

  CampaignConfig base;
  base.fault_model = FaultModel::kExponentBit;
  base.trials_per_input = 20;
  base.gen_tokens = 6;
  base.seed = 99;
  for (SchemeKind scheme : {SchemeKind::kNone, SchemeKind::kFt2}) {
    // The campaign runs GenerateOptions' default chunk; the same trials
    // replayed one position at a time and in 8-position chunks agree.
    const SchemeSpec spec = scheme_spec(scheme, model.config());
    const auto campaign = run_campaign(model, inputs, scheme, BoundStore{},
                                       base);
    for (const std::size_t chunk : {1u, 8u}) {
      SCOPED_TRACE(::testing::Message() << scheme_name(scheme)
                                        << " chunk " << chunk);
      const auto b = hand_campaign(model, inputs, spec, base, chunk);
      EXPECT_EQ(campaign.trials, b.trials);
      EXPECT_EQ(campaign.masked_identical, b.masked_identical);
      EXPECT_EQ(campaign.masked_semantic, b.masked_semantic);
      EXPECT_EQ(campaign.sdc, b.sdc);
      EXPECT_EQ(campaign.not_injected, b.not_injected);
    }
  }
}

}  // namespace
}  // namespace ft2
