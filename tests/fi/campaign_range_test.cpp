// Resumable campaigns: disjoint trial ranges compose exactly, because each
// trial's randomness comes from its own Philox stream.
#include <gtest/gtest.h>

#include "core/ft2.hpp"
#include "fi/report.hpp"
#include "fi/trace.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 96;
  Xoshiro256 rng(33);
  return TransformerLM(c, init_weights(c, rng));
}

TEST(CampaignRange, SplitRunsComposeExactly) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(3, 5);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 20;
  config.gen_tokens = 6;
  const auto spec = scheme_spec(SchemeKind::kNone, model.config());
  const std::size_t total = inputs.size() * config.trials_per_input;

  const auto full =
      run_campaign(model, inputs, spec, BoundStore{}, config);
  auto part1 = run_campaign_range(model, inputs, spec, BoundStore{}, config,
                                  0, total / 3);
  const auto part2 = run_campaign_range(model, inputs, spec, BoundStore{},
                                        config, total / 3, total);
  part1.merge(part2);

  EXPECT_EQ(part1.trials, full.trials);
  EXPECT_EQ(part1.sdc, full.sdc);
  EXPECT_EQ(part1.masked_identical, full.masked_identical);
  EXPECT_EQ(part1.masked_semantic, full.masked_semantic);
}

TEST(CampaignRange, EmptyAndFullRanges) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 6);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  CampaignConfig config;
  config.trials_per_input = 5;
  config.gen_tokens = 6;
  const auto spec = scheme_spec(SchemeKind::kNone, model.config());

  const auto empty = run_campaign_range(model, inputs, spec, BoundStore{},
                                        config, 2, 2);
  EXPECT_EQ(empty.trials, 0u);

  EXPECT_THROW(run_campaign_range(model, inputs, spec, BoundStore{}, config,
                                  0, 99),
               Error);
  EXPECT_THROW(run_campaign_range(model, inputs, spec, BoundStore{}, config,
                                  4, 2),
               Error);
}

TEST(CampaignRange, TraceCarriesGlobalTrialIds) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 7);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  CampaignConfig config;
  config.trials_per_input = 10;
  config.gen_tokens = 6;

  TraceCollector trace;
  run_campaign_range(model, inputs, scheme_spec(SchemeKind::kNone,
                                                model.config()),
                     BoundStore{}, config, 5, 9, trace.callback());
  ASSERT_EQ(trace.size(), 4u);
  for (const auto& r : trace.records()) {
    EXPECT_GE(r.trial, 5u);
    EXPECT_LT(r.trial, 9u);
  }
}

TEST(TraceTally, SdcByLayerAggregates) {
  TraceCollector trace;
  auto cb = trace.callback();
  auto rec = [](LayerKind kind, Outcome outcome) {
    TrialRecord r;
    r.plan.site = {0, kind};
    r.outcome = outcome;
    return r;
  };
  cb(rec(LayerKind::kVProj, Outcome::kSdc));
  cb(rec(LayerKind::kVProj, Outcome::kMaskedIdentical));
  cb(rec(LayerKind::kQProj, Outcome::kMaskedIdentical));

  const auto tally = aggregate_trial_records(trace.records()).by_layer;
  ASSERT_EQ(tally.size(), 2u);
  EXPECT_EQ(tally.at(LayerKind::kVProj).faults, 2u);
  EXPECT_EQ(tally.at(LayerKind::kVProj).sdc, 1u);
  EXPECT_DOUBLE_EQ(tally.at(LayerKind::kVProj).sdc_rate(), 0.5);
  EXPECT_EQ(tally.at(LayerKind::kQProj).sdc, 0u);
  EXPECT_DOUBLE_EQ(tally.at(LayerKind::kQProj).sdc_rate(), 0.0);
}

}  // namespace
}  // namespace ft2
