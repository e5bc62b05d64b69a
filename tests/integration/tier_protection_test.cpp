// Protection on the epilogue kernel, end to end: range restriction runs on
// the active kernel tier's epilogue sweep (KernelOps::epilogue_span) inside
// every protection hook, so protected generation and full fault-injection
// campaigns must be bit-identical on every supported tier. Each case runs
// on the SSE reference tier first and then on every supported tier, and
// pins the "results never change" contract at the system level — tokens,
// per-kind protection stats, clip events, first-detect positions, online
// bounds, protect.* counters, campaign outcomes and per-trial records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

/// Restores the active tier on scope exit.
class TierGuard {
 public:
  TierGuard() : tier_(active_kernel_tier()) {}
  ~TierGuard() { set_kernel_tier(tier_); }

 private:
  KernelTier tier_;
};

/// Runs `run` on the SSE reference tier, then on every supported tier, and
/// hands each tier's result and the reference to `expect`.
template <typename Run, typename Expect>
void expect_every_tier_matches_sse(const Run& run, const Expect& expect) {
  TierGuard guard;
  set_kernel_tier(KernelTier::kSse);
  const auto reference = run();
  for (KernelTier tier : supported_kernel_tiers()) {
    SCOPED_TRACE(kernel_tier_name(tier));
    set_kernel_tier(tier);
    expect(run(), reference);
  }
}

TransformerLM micro_model() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 24;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 32;
  c.max_seq = 96;
  Xoshiro256 rng(77);
  return TransformerLM(c, init_weights(c, rng));
}

std::vector<int> test_prompt() {
  const auto gen = make_generator(DatasetKind::kSynthQA);
  Xoshiro256 rng(3);
  const Sample s = gen->generate(rng);
  std::vector<int> prompt = {Vocab::kBos};
  prompt.insert(prompt.end(), s.prompt_tokens.begin(), s.prompt_tokens.end());
  return prompt;
}

/// Artificially tight bounds at every site of the spec's coverage so a
/// clean generation clips constantly — the kernel's dirty-lane slow path
/// and event recording get exercised hard, not just the clean path.
BoundStore tight_bounds(const TransformerLM& model, const SchemeSpec& spec) {
  BoundStore bounds(model.config());
  for (std::size_t b = 0; b < model.config().n_blocks; ++b) {
    for (LayerKind k : spec.covered) {
      Bounds& site = bounds.at(LayerSite{static_cast<int>(b), k});
      site.lo = -0.01f;
      site.hi = 0.01f;
      site.typical = 0.0f;
    }
  }
  return bounds;
}

struct ProtectedRun {
  GenerateResult result;
  std::array<ProtectionStats, kLayerKindCount> kind_stats;
  std::vector<ClipEvent> clips;
  long long first_detect = -1;
  MetricsSnapshot metrics;
  std::size_t online_valid = 0;
};

struct RunOptions {
  bool chunked_accum = false;
  bool detect_only = false;
  /// Registered after the protection hook when non-null.
  OutputHook* after = nullptr;
};

ProtectedRun run_protected(const TransformerLM& model, SchemeKind scheme,
                           const RunOptions& options = {}) {
  auto spec = scheme_spec(scheme, model.config());
  spec.detect_only = options.detect_only;
  BoundStore bounds;
  if (spec.needs_offline_bounds) bounds = tight_bounds(model, spec);

  MetricsRegistry metrics;
  ProtectionHook hook(model.config(), spec, std::move(bounds), &metrics);
  hook.set_clip_capture(true);

  InferenceSession session(model);
  const auto reg = session.hooks().add(hook);
  HookRegistration after_reg;
  if (options.after != nullptr) after_reg = session.hooks().add(*options.after);
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  opts.eos_token = -1;
  opts.chunked_accum = options.chunked_accum;

  ProtectedRun run;
  run.result = session.generate(test_prompt(), opts);
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    run.kind_stats[k] = hook.stats(static_cast<LayerKind>(k));
  }
  run.clips = hook.clip_events();
  run.first_detect = hook.first_detect_position();
  run.metrics = metrics.snapshot();
  run.online_valid = hook.online_bounds().valid_count();
  return run;
}

std::size_t total_oob(const ProtectedRun& run) {
  std::size_t n = 0;
  for (const auto& s : run.kind_stats) n += s.oob_corrected;
  return n;
}

void expect_runs_identical(const ProtectedRun& a, const ProtectedRun& b) {
  EXPECT_EQ(a.result.tokens, b.result.tokens);
  EXPECT_EQ(a.result.positions_run, b.result.positions_run);
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    EXPECT_EQ(a.kind_stats[k].values_checked, b.kind_stats[k].values_checked)
        << layer_kind_name(static_cast<LayerKind>(k));
    EXPECT_EQ(a.kind_stats[k].nan_corrected, b.kind_stats[k].nan_corrected)
        << layer_kind_name(static_cast<LayerKind>(k));
    EXPECT_EQ(a.kind_stats[k].oob_corrected, b.kind_stats[k].oob_corrected)
        << layer_kind_name(static_cast<LayerKind>(k));
  }
  EXPECT_EQ(a.first_detect, b.first_detect);
  EXPECT_EQ(a.online_valid, b.online_valid);
  ASSERT_EQ(a.clips.size(), b.clips.size());
  for (std::size_t i = 0; i < a.clips.size(); ++i) {
    EXPECT_EQ(a.clips[i].kind, b.clips[i].kind) << "clip " << i;
    EXPECT_EQ(a.clips[i].position, b.clips[i].position) << "clip " << i;
    EXPECT_EQ(f32_bits(a.clips[i].original), f32_bits(b.clips[i].original))
        << "clip " << i;
  }
  // protect.* counters (and every other metric) advance identically.
  ASSERT_EQ(a.metrics.counters.size(), b.metrics.counters.size());
  for (std::size_t i = 0; i < a.metrics.counters.size(); ++i) {
    EXPECT_EQ(a.metrics.counters[i].name, b.metrics.counters[i].name);
    EXPECT_EQ(a.metrics.counters[i].value, b.metrics.counters[i].value)
        << a.metrics.counters[i].name;
  }
}

TEST(FusedEpilogue, OfflineProtectedGenerationIdenticalAcrossTiers) {
  const TransformerLM model = micro_model();
  expect_every_tier_matches_sse(
      [&] { return run_protected(model, SchemeKind::kFt2Offline); },
      [](const ProtectedRun& run, const ProtectedRun& reference) {
        // The tight bounds must actually clip, or this test proves nothing.
        ASSERT_GT(total_oob(run), 0u) << "tight bounds produced no clips";
        ASSERT_FALSE(run.clips.empty());
        expect_runs_identical(run, reference);
      });
}

TEST(FusedEpilogue, OnlineFt2GenerationIdenticalAcrossTiers) {
  // FT2 online: the first-token phase observes bounds over the corrected
  // values in flat order; online bounds, the protection they drive
  // afterwards, and all accounting must match the SSE reference exactly.
  const TransformerLM model = micro_model();
  expect_every_tier_matches_sse(
      [&] { return run_protected(model, SchemeKind::kFt2); },
      [](const ProtectedRun& run, const ProtectedRun& reference) {
        ASSERT_GT(run.online_valid, 0u)
            << "first-token phase observed no bounds";
        expect_runs_identical(run, reference);
      });
}

TEST(FusedEpilogue, ChunkedAccumGenerationIdenticalAcrossTiers) {
  // Chunked accumulation changes the GEMM's reduction order, not the
  // protection that follows it: an offline scheme clipping constantly,
  // and online FT2.
  const TransformerLM model = micro_model();
  for (SchemeKind scheme : {SchemeKind::kFt2Offline, SchemeKind::kFt2}) {
    SCOPED_TRACE(scheme_name(scheme));
    expect_every_tier_matches_sse(
        [&] {
          return run_protected(model, scheme, {.chunked_accum = true});
        },
        [&](const ProtectedRun& run, const ProtectedRun& reference) {
          if (scheme == SchemeKind::kFt2Offline) {
            ASSERT_FALSE(run.clips.empty())
                << "tight bounds produced no clips";
          } else {
            ASSERT_GT(run.online_valid, 0u)
                << "first-token phase observed no bounds";
          }
          expect_runs_identical(run, reference);
        });
  }
}

TEST(FusedEpilogue, DetectOnlySchemeIdenticalAcrossTiers) {
  // detect_only: violations are counted but values pass through unchanged.
  const TransformerLM model = micro_model();
  expect_every_tier_matches_sse(
      [&] {
        return run_protected(model, SchemeKind::kFt2Offline,
                             {.detect_only = true});
      },
      [](const ProtectedRun& run, const ProtectedRun& reference) {
        ASSERT_GT(total_oob(run), 0u);
        expect_runs_identical(run, reference);
      });
}

TEST(FusedEpilogue, CampaignOutcomesIdenticalAcrossTiers) {
  // Campaigns register the injector ahead of the protection hook, so
  // protection sees the corrupted values and clamps them on the active
  // tier. abft-linear's fallback clamp and ft2-adaptive's enforcement run
  // range_restrict too, so their outcomes depend on the tier as much as
  // FT2's do. Outcomes, detections and per-trial records must not move.
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(3, 5);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 10;
  config.gen_tokens = 6;

  for (const char* name : {"ft2", "abft-linear", "ft2-adaptive"}) {
    SCOPED_TRACE(name);
    const SchemeRef scheme = SchemeRef::parse(name);
    auto run = [&] {
      std::vector<TrialRecord> trace;
      const CampaignResult result = run_campaign(
          model, inputs, scheme, BoundStore{}, config,
          [&](const TrialRecord& r) { trace.push_back(r); });
      std::sort(trace.begin(), trace.end(),
                [](const TrialRecord& a, const TrialRecord& b) {
                  return a.trial < b.trial;
                });
      return std::make_pair(result, std::move(trace));
    };
    expect_every_tier_matches_sse(run, [](const auto& got, const auto& ref) {
      EXPECT_EQ(got.first.trials, ref.first.trials);
      EXPECT_EQ(got.first.sdc, ref.first.sdc);
      EXPECT_EQ(got.first.masked_identical, ref.first.masked_identical);
      EXPECT_EQ(got.first.masked_semantic, ref.first.masked_semantic);
      EXPECT_EQ(got.first.not_injected, ref.first.not_injected);
      ASSERT_EQ(got.second.size(), ref.second.size());
      for (std::size_t t = 0; t < got.second.size(); ++t) {
        EXPECT_EQ(got.second[t].outcome, ref.second[t].outcome)
            << "trial " << t;
        EXPECT_EQ(got.second[t].detections, ref.second[t].detections)
            << "trial " << t;
        EXPECT_EQ(got.second[t].detect_position, ref.second[t].detect_position)
            << "trial " << t;
        EXPECT_EQ(got.second[t].generated_text, ref.second[t].generated_text)
            << "trial " << t;
      }
    });
  }
}

/// Switches the active kernel tier on every dispatch it sees, cycling
/// through every supported tier.
class TierCycler final : public OutputHook {
 public:
  void on_output(const HookContext& ctx, std::span<float> values) override {
    (void)ctx;
    (void)values;
    const std::vector<KernelTier> tiers = supported_kernel_tiers();
    set_kernel_tier(tiers[next_++ % tiers.size()]);
  }

 private:
  std::size_t next_ = 0;
};

TEST(FusedEpilogue, TierSwitchKeepsProtectedGenerationIdentical) {
  // Switching tiers mid-generation, between any two site dispatches, must
  // not change a protected generation: kernels and packed weights hold no
  // tier state, so every mix of tiers matches the SSE reference token for
  // token and count for count.
  const TransformerLM model = micro_model();
  TierGuard guard;
  set_kernel_tier(KernelTier::kSse);
  const ProtectedRun reference = run_protected(model, SchemeKind::kFt2Offline);
  TierCycler cycler;
  const ProtectedRun switched =
      run_protected(model, SchemeKind::kFt2Offline, {.after = &cycler});
  ASSERT_GT(total_oob(reference), 0u);
  expect_runs_identical(switched, reference);
}

}  // namespace
}  // namespace ft2
