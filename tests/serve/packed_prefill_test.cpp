// Packed prefill in the serve engine: every prefill forward (budgeted
// chunks, 1-wide chunks, the last chunk's LM head) runs
// from the model's packed tiles, with the fused protection epilogue swept
// after each GEMM. Each case compares hooked requests against solo
// InferenceSession::generate bit for bit: tokens, per-kind
// ProtectionStats, clip events, first-detect position and online bounds.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "core/ft2.hpp"
#include "serve_test_util.hpp"

namespace ft2 {
namespace {

using serve_test::expect_equal_results;
using serve_test::expect_same_traffic;
using serve_test::long_prompt;
using serve_test::micro_model;
using serve_test::SiteRecorder;

/// Tight bounds at every covered site so a clean prefill clips constantly.
BoundStore tight_bounds(const TransformerLM& model, const SchemeSpec& spec) {
  BoundStore bounds(model.config());
  for (std::size_t b = 0; b < model.config().n_blocks; ++b) {
    for (LayerKind k : spec.covered) {
      Bounds& site = bounds.at(LayerSite{static_cast<int>(b), k});
      site.lo = -0.05f;
      site.hi = 0.05f;
      site.typical = 0.0f;
    }
  }
  return bounds;
}

/// One hooked request: protection (the fusion provider, first in the chain)
/// with clip capture on, then a recorder of the post-correction traffic.
struct Hooked {
  ProtectionHook protection;
  SiteRecorder recorder;

  Hooked(const TransformerLM& model, const SchemeSpec& spec,
         const BoundStore& bounds)
      : protection(model.config(), spec, bounds) {
    protection.set_clip_capture(true);
  }

  std::vector<HookRegistration> attach(HookChain& chain) {
    std::vector<HookRegistration> regs;
    regs.push_back(chain.add(protection));
    regs.push_back(chain.add(recorder));
    return regs;
  }
};

void expect_same_protection(const Hooked& got, const Hooked& ref,
                            std::size_t r, const char* what) {
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const auto kind = static_cast<LayerKind>(k);
    const ProtectionStats& g = got.protection.stats(kind);
    const ProtectionStats& w = ref.protection.stats(kind);
    EXPECT_EQ(g.values_checked, w.values_checked)
        << what << ": request " << r << " " << layer_kind_name(kind);
    EXPECT_EQ(g.nan_corrected, w.nan_corrected)
        << what << ": request " << r << " " << layer_kind_name(kind);
    EXPECT_EQ(g.oob_corrected, w.oob_corrected)
        << what << ": request " << r << " " << layer_kind_name(kind);
  }
  const auto& gc = got.protection.clip_events();
  const auto& wc = ref.protection.clip_events();
  ASSERT_EQ(gc.size(), wc.size()) << what << ": request " << r;
  for (std::size_t i = 0; i < gc.size(); ++i) {
    EXPECT_EQ(gc[i].kind, wc[i].kind) << what << ": clip " << i;
    EXPECT_EQ(gc[i].position, wc[i].position) << what << ": clip " << i;
    EXPECT_EQ(gc[i].original, wc[i].original) << what << ": clip " << i;
  }
  EXPECT_EQ(got.protection.first_detect_position(),
            ref.protection.first_detect_position())
      << what << ": request " << r;
  for (std::size_t b = 0; b < ref.protection.online_bounds().n_blocks(); ++b) {
    for (std::size_t k = 0; k < kLayerKindCount; ++k) {
      const LayerSite site{static_cast<int>(b), static_cast<LayerKind>(k)};
      EXPECT_EQ(got.protection.online_bounds().at(site).lo,
                ref.protection.online_bounds().at(site).lo)
          << what << ": request " << r << " block " << b;
      EXPECT_EQ(got.protection.online_bounds().at(site).hi,
                ref.protection.online_bounds().at(site).hi)
          << what << ": request " << r << " block " << b;
    }
  }
  expect_same_traffic(ref.recorder, got.recorder, r, what);
}

/// Runs each hooked request solo, then all of them through one engine, and
/// compares everything.
void expect_serve_matches_solo(
    const TransformerLM& model, const SchemeSpec& spec,
    const BoundStore& bounds, const std::vector<std::vector<int>>& prompts,
    const std::vector<GenerateOptions>& options,
    const ServeOptions& serve_opts, const char* what) {
  std::vector<std::unique_ptr<Hooked>> solo;
  std::vector<GenerateResult> ref;
  for (std::size_t r = 0; r < prompts.size(); ++r) {
    solo.push_back(std::make_unique<Hooked>(model, spec, bounds));
    InferenceSession session(model);
    const auto regs = solo.back()->attach(session.hooks());
    ref.push_back(session.generate(prompts[r], options[r]));
  }

  ServeEngine engine(model, serve_opts);
  std::vector<std::unique_ptr<Hooked>> served;
  std::vector<HookRegistration> regs;
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < prompts.size(); ++r) {
    served.push_back(std::make_unique<Hooked>(model, spec, bounds));
    ids.push_back(engine.submit(prompts[r], options[r]));
    for (auto& reg : served.back()->attach(engine.hooks(ids.back()))) {
      regs.push_back(std::move(reg));
    }
  }
  engine.run();

  for (std::size_t r = 0; r < prompts.size(); ++r) {
    expect_equal_results(engine.result(ids[r]), ref[r], r, what);
    expect_same_protection(*served[r], *solo[r], r, what);
  }
}

TEST(ServeEnginePackedPrefill, OneWideLastChunkMatchesSolo) {
  const TransformerLM model = micro_model(ArchFamily::kLlama);
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
  GenerateOptions opts;
  opts.prefill_chunk = 8;
  opts.max_new_tokens = 6;
  opts.eos_token = -1;
  // prefill_chunk + 1 tokens: one 8-wide chunk, then a 1-wide last chunk
  // that runs forward_position and the packed LM head.
  const std::vector<std::vector<int>> prompts = {
      long_prompt(model, opts.prefill_chunk + 1, 5)};
  ServeOptions serve_opts;
  serve_opts.prefill_chunk_budget = 4;  // chunks spread across steps
  expect_serve_matches_solo(model, spec, BoundStore{}, prompts, {opts},
                            serve_opts, "1-wide last chunk");
}

/// Restores the active kernel tier on scope exit.
class TierGuard {
 public:
  TierGuard() : tier_(active_kernel_tier()) {}
  ~TierGuard() { set_kernel_tier(tier_); }

 private:
  KernelTier tier_;
};

/// Hooked requests under offline bounds tight enough that their prefill
/// clips, served against solo.
void expect_clipping_prefill_matches_solo(ArchFamily arch) {
  const TransformerLM model = micro_model(arch);
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2Offline, model.config());
  const BoundStore bounds = tight_bounds(model, spec);
  GenerateOptions opts;
  opts.prefill_chunk = 8;
  opts.max_new_tokens = 5;
  opts.eos_token = -1;
  // 8 + 8 + 4 positions: multi-row packed GEMMs with the bounds epilogue
  // recording clip events.
  const std::vector<std::vector<int>> prompts = {long_prompt(model, 20, 6),
                                                 long_prompt(model, 13, 7)};
  const std::vector<GenerateOptions> options(prompts.size(), opts);

  // Precondition: the bounds really clip during the prefill.
  Hooked probe(model, spec, bounds);
  InferenceSession session(model);
  const auto regs = probe.attach(session.hooks());
  session.generate(prompts[0], opts);
  std::size_t prefill_clips = 0;
  for (const ClipEvent& e : probe.protection.clip_events()) {
    prefill_clips += e.position < prompts[0].size() ? 1 : 0;
  }
  ASSERT_GT(prefill_clips, 0u) << "bounds too loose to clip in prefill";

  expect_serve_matches_solo(model, spec, bounds, prompts, options,
                            ServeOptions{}, "clipping prefill");
}

TEST(ServeEnginePackedPrefill, ClippingPrefillMatchesSoloEventForEvent) {
  // OPT exercises packed bias tiles, Llama the gate/up/down MLP. The SSE
  // tier's 16-column tiles split every layer of the micro model into
  // several column tasks, so per-task tallies are merged and their events
  // sorted.
  const TierGuard guard;
  for (const KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    for (const ArchFamily arch : {ArchFamily::kOpt, ArchFamily::kLlama}) {
      SCOPED_TRACE(kernel_tier_name(tier));
      expect_clipping_prefill_matches_solo(arch);
    }
  }
}

TEST(ServeEnginePackedPrefill, PrefillReadsTheModelsTiles) {
  // The engine keeps no weights of its own: a weight mutation after engine
  // construction reaches its prefill. With one generated token, every
  // observed value comes from prefill, so the served traffic matching the
  // MUTATED weights proves prefill ran from the model's tiles.
  TransformerLM model = micro_model(ArchFamily::kLlama);
  const std::vector<int> prompt = long_prompt(model, 19, 11);
  GenerateOptions opts;
  opts.prefill_chunk = 8;
  opts.max_new_tokens = 1;
  opts.eos_token = -1;

  const auto solo = [&](SiteRecorder& rec) {
    InferenceSession session(model);
    const auto reg = session.hooks().add(rec);
    return session.generate(prompt, opts);
  };
  SiteRecorder original;
  solo(original);

  ServeEngine engine(model);
  SiteRecorder served;
  const RequestId id = engine.submit(prompt, opts);
  const auto reg = engine.hooks(id).add(served);

  for (std::uint16_t& h : model.linear({0, LayerKind::kQProj}).tiles) {
    h = f16::from_float(3.0f * f16::from_bits(h).to_float()).bits();
  }
  SiteRecorder mutated;
  const GenerateResult mutated_ref = solo(mutated);
  ASSERT_FALSE(mutated.by_site() == original.by_site());

  engine.run();
  expect_equal_results(engine.result(id), mutated_ref, 0, "mutated");
  expect_same_traffic(mutated, served, 0, "mutated");
}

}  // namespace
}  // namespace ft2
