#include "protect/profiler.hpp"

#include <gtest/gtest.h>

#include "nn/model.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model() {
  ModelConfig c;
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 96;
  Xoshiro256 rng(3);
  return TransformerLM(c, init_weights(c, rng));
}

OfflineProfileOptions profile_opts(std::size_t n_inputs, std::uint64_t seed,
                                   std::size_t max_new_tokens) {
  OfflineProfileOptions o;
  o.n_inputs = n_inputs;
  o.seed = seed;
  o.max_new_tokens = max_new_tokens;
  return o;
}

TEST(Profiler, OfflineBoundsCoverEveryLinearSite) {
  const TransformerLM model = micro_model();
  const auto gen = make_generator(DatasetKind::kSynthQA);
  const BoundStore bounds =
      profile_offline_bounds(model, *gen, profile_opts(3, 11, 6));

  for (std::size_t b = 0; b < model.config().n_blocks; ++b) {
    for (LayerKind kind : model.config().block_layers()) {
      const LayerSite site{static_cast<int>(b), kind};
      EXPECT_TRUE(bounds.at(site).valid())
          << "block " << b << " " << layer_kind_name(kind);
      EXPECT_LE(bounds.at(site).lo, bounds.at(site).hi);
    }
  }
}

TEST(Profiler, MoreInputsWidenOrKeepBounds) {
  const TransformerLM model = micro_model();
  const auto gen = make_generator(DatasetKind::kSynthQA);
  const BoundStore few =
      profile_offline_bounds(model, *gen, profile_opts(2, 11, 6));
  const BoundStore many =
      profile_offline_bounds(model, *gen, profile_opts(8, 11, 6));
  for (std::size_t b = 0; b < model.config().n_blocks; ++b) {
    for (LayerKind kind : model.config().block_layers()) {
      const LayerSite site{static_cast<int>(b), kind};
      EXPECT_LE(many.at(site).lo, few.at(site).lo + 1e-6f);
      EXPECT_GE(many.at(site).hi, few.at(site).hi - 1e-6f);
    }
  }
}

TEST(Profiler, BoundsAreDeterministic) {
  const TransformerLM model = micro_model();
  const auto gen = make_generator(DatasetKind::kSynthXQA);
  const BoundStore a = profile_offline_bounds(model, *gen, profile_opts(4, 7, 6));
  const BoundStore b = profile_offline_bounds(model, *gen, profile_opts(4, 7, 6));
  const LayerSite site{0, LayerKind::kVProj};
  EXPECT_EQ(a.at(site).lo, b.at(site).lo);
  EXPECT_EQ(a.at(site).hi, b.at(site).hi);
}

TEST(ActivationStats, RecordsPerSiteAndAggregates) {
  ActivationStatsHook stats(4.0f, 8);
  std::vector<float> v0 = {0.5f, 1.5f, -1.2f};  // two NaN-vulnerable
  std::vector<float> v1 = {0.1f, 0.2f, 0.3f};   // none
  stats.on_output(HookContext{{0, LayerKind::kQProj}, 0, true}, v0);
  stats.on_output(HookContext{{1, LayerKind::kQProj}, 0, true}, v1);

  const auto* s0 = stats.find(LayerSite{0, LayerKind::kQProj});
  ASSERT_NE(s0, nullptr);
  EXPECT_EQ(s0->total, 3u);
  EXPECT_EQ(s0->nan_vulnerable, 2u);
  EXPECT_NEAR(s0->nan_vulnerable_fraction(), 2.0 / 3.0, 1e-12);

  const auto agg = stats.aggregate(LayerKind::kQProj);
  EXPECT_EQ(agg.total, 6u);
  EXPECT_EQ(agg.nan_vulnerable, 2u);
  EXPECT_EQ(stats.observed_sites().size(), 2u);
  EXPECT_EQ(stats.find(LayerSite{0, LayerKind::kVProj}), nullptr);
}

TEST(ActivationStats, NanValuesTrackedNotCounted) {
  ActivationStatsHook stats;
  std::vector<float> v = {std::nanf(""), 1.0f};
  stats.on_output(HookContext{{0, LayerKind::kFc1}, 0, true}, v);
  const auto* s = stats.find(LayerSite{0, LayerKind::kFc1});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total, 2u);
  EXPECT_EQ(s->stats.count(), 1u);  // NaN excluded from moments
  EXPECT_EQ(s->histogram.nan_count(), 1u);
}

}  // namespace
}  // namespace ft2
