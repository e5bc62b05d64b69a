// Fault-free prefix reuse is a pure throughput knob: campaigns with
// CampaignConfig::prefix_reuse on vs. off must be bit-identical in
// outcomes, per-trial FaultPlans, TrialRecord.detections and protect.*
// counters — across pool sizes and for both decode-phase and prefill-phase
// (first_token_only) fault placements. Also covers the session-level
// snapshot/fork API directly and the clamped-fork (kNotInjected) edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model(std::size_t max_seq = 96) {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = max_seq;
  Xoshiro256 rng(47);
  return TransformerLM(c, init_weights(c, rng));
}

bool same_plan(const FaultPlan& a, const FaultPlan& b) {
  return a.position == b.position && a.site == b.site && a.neuron == b.neuron &&
         a.vtype == b.vtype && a.in_first_token == b.in_first_token &&
         a.flips.count == b.flips.count && a.flips.bits == b.flips.bits;
}

std::vector<TrialRecord> sorted_records(std::vector<TrialRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TrialRecord& a, const TrialRecord& b) {
              return a.trial < b.trial;
            });
  return records;
}

/// One full campaign run captured for comparison: counts, sorted per-trial
/// records, and the metrics snapshot of a run-private registry.
struct CampaignCapture {
  CampaignResult result;
  std::vector<TrialRecord> records;
  MetricsSnapshot metrics;
};

CampaignCapture run_once(const TransformerLM& model,
                         const std::vector<EvalInput>& inputs,
                         const SchemeSpec& spec, CampaignConfig config,
                         bool prefix_reuse, ThreadPool* pool) {
  MetricsRegistry registry;
  config.prefix_reuse = prefix_reuse;
  config.pool = pool;
  config.obs.metrics = &registry;
  CampaignCapture cap;
  std::vector<TrialRecord> trace;
  cap.result =
      run_campaign(model, inputs, spec, BoundStore{}, config,
                   [&](const TrialRecord& r) { trace.push_back(r); });
  cap.records = sorted_records(std::move(trace));
  cap.metrics = registry.snapshot();
  return cap;
}

/// Asserts the reuse-on capture `b` is bit-identical to the reuse-off
/// baseline `a` in everything the fault model can observe.
void expect_identical(const CampaignCapture& a, const CampaignCapture& b,
                      const std::string& label) {
  EXPECT_EQ(a.result.trials, b.result.trials) << label;
  EXPECT_EQ(a.result.masked_identical, b.result.masked_identical) << label;
  EXPECT_EQ(a.result.masked_semantic, b.result.masked_semantic) << label;
  EXPECT_EQ(a.result.sdc, b.result.sdc) << label;
  EXPECT_EQ(a.result.not_injected, b.result.not_injected) << label;

  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t t = 0; t < a.records.size(); ++t) {
    EXPECT_EQ(a.records[t].trial, b.records[t].trial) << label;
    EXPECT_EQ(a.records[t].input_index, b.records[t].input_index) << label;
    EXPECT_EQ(a.records[t].outcome, b.records[t].outcome)
        << label << " trial " << t;
    EXPECT_EQ(a.records[t].detections, b.records[t].detections)
        << label << " trial " << t;
    EXPECT_EQ(a.records[t].generated_text, b.records[t].generated_text)
        << label << " trial " << t;
    EXPECT_TRUE(same_plan(a.records[t].plan, b.records[t].plan))
        << label << " trial " << t;
  }

  // Every protect.* counter advances by exactly the same amount whether the
  // prefix was replayed or restored (both directions: no extra counters on
  // either side).
  for (const auto& c : a.metrics.counters) {
    if (std::string_view(c.name).substr(0, 8) != "protect.") continue;
    EXPECT_EQ(c.value, b.metrics.counter_value(c.name)) << label << " " << c.name;
  }
  for (const auto& c : b.metrics.counters) {
    if (std::string_view(c.name).substr(0, 8) != "protect.") continue;
    EXPECT_EQ(c.value, a.metrics.counter_value(c.name)) << label << " " << c.name;
  }
  // Clip-magnitude histograms replay the same per-bucket populations (sum
  // accumulation order may differ across workers, so only the integer
  // fields are compared bit-exactly).
  for (const auto& h : a.metrics.histograms) {
    if (std::string_view(h.name).substr(0, 8) != "protect.") continue;
    const auto* other = b.metrics.find_histogram(h.name);
    ASSERT_NE(other, nullptr) << label << " " << h.name;
    EXPECT_EQ(h.count, other->count) << label << " " << h.name;
    EXPECT_EQ(h.counts, other->counts) << label << " " << h.name;
    EXPECT_EQ(h.nan_count, other->nan_count) << label << " " << h.name;
    EXPECT_NEAR(h.sum, other->sum, 1e-6 * (1.0 + std::abs(h.sum)))
        << label << " " << h.name;
  }
}

CampaignConfig base_config() {
  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 12;
  config.gen_tokens = 6;
  config.seed = 3;
  return config;
}

TEST(PrefixReuse, DecodePhaseBitIdenticalAcrossPoolSizes) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(3, 5);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  const CampaignConfig config = base_config();

  ThreadPool pool1(1), pool2(2), pool8(8);
  const auto off = run_once(model, inputs, spec, config, false, &pool1);
  for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    const auto on = run_once(model, inputs, spec, config, true, pool);
    expect_identical(off, on, "pool " + std::to_string(pool->size()));
    // With decode-phase placements most trials fork; the split always
    // accounts for every trial.
    const auto hits = on.metrics.counter_value("campaign.prefix.hit");
    const auto misses = on.metrics.counter_value("campaign.prefix.miss");
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(hits + misses, on.result.trials);
  }
  // Reuse off publishes no prefix counters at all.
  EXPECT_EQ(off.metrics.find_counter("campaign.prefix.hit"), nullptr);
  EXPECT_EQ(off.metrics.find_counter("campaign.prefix.miss"), nullptr);
}

TEST(PrefixReuse, FirstTokenOnlyBitIdenticalAndAlwaysFallsBack) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 13);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  CampaignConfig config = base_config();
  config.first_token_only = true;  // every fault lands in the prefill

  ThreadPool pool1(1), pool8(8);
  const auto off = run_once(model, inputs, spec, config, false, &pool1);
  for (ThreadPool* pool : {&pool1, &pool8}) {
    const auto on = run_once(model, inputs, spec, config, true, pool);
    expect_identical(off, on, "first-token pool " + std::to_string(pool->size()));
    // Prefill-phase faults can never reuse a fault-free prefix: every
    // trial must take the full-run fallback.
    EXPECT_EQ(on.metrics.counter_value("campaign.prefix.hit"), 0u);
    EXPECT_EQ(on.metrics.counter_value("campaign.prefix.miss"),
              on.result.trials);
  }
}

TEST(PrefixReuse, OtherSchemesAndMultiFaultTrialsStayIdentical) {
  // Offline-bounded scheme (no online state to restore) and two faults per
  // trial (fork position = min over injectors) both ride the same path.
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 21);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  const auto spec = scheme_spec(SchemeKind::kNone, model.config());
  CampaignConfig config = base_config();
  config.fault_model = FaultModel::kSingleBit;
  config.faults_per_trial = 2;

  ThreadPool pool2(2);
  const auto off = run_once(model, inputs, spec, config, false, &pool2);
  const auto on = run_once(model, inputs, spec, config, true, &pool2);
  expect_identical(off, on, "multi-fault");
}

TEST(PrefixReuse, ClampedForksMatchFullRunsWhenDecodeStopsEarly) {
  // max_seq small enough that decode halts before the last planned fault
  // position: those trials are kNotInjected and their forks clamp to the
  // last executed boundary (zero resumed forwards). Must still match the
  // full-run fallback bit for bit.
  const TransformerLM model = micro_model(/*max_seq=*/16);
  auto samples = make_generator(DatasetKind::kSynthQA)->generate_many(1, 9);
  // Pad the prompt so prompt_len + gen_tokens - 1 overshoots max_seq.
  while (samples[0].prompt_tokens.size() < 14) {
    samples[0].prompt_tokens.push_back(samples[0].prompt_tokens.front());
  }
  const auto inputs = prepare_eval_inputs(model, samples, 8, false);
  ASSERT_EQ(inputs.size(), 1u);
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  CampaignConfig config = base_config();
  config.gen_tokens = 8;
  config.trials_per_input = 24;

  ThreadPool pool2(2);
  const auto off = run_once(model, inputs, spec, config, false, &pool2);
  const auto on = run_once(model, inputs, spec, config, true, &pool2);
  expect_identical(off, on, "clamped");
  EXPECT_GT(on.result.not_injected, 0u);  // the edge actually triggered
}

TEST(PrefixReuse, PrepareEvalInputsParallelMatchesSerial) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(6, 17);
  const auto serial = prepare_eval_inputs(model, samples, 6, false);
  ThreadPool pool1(1), pool2(2), pool8(8);
  for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    const auto par = prepare_eval_inputs(model, samples, 6, false, pool);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(par[i].prompt, serial[i].prompt) << "input " << i;
      EXPECT_EQ(par[i].reference_tokens, serial[i].reference_tokens)
          << "input " << i;
      EXPECT_EQ(par[i].fault_free_correct, serial[i].fault_free_correct)
          << "input " << i;
    }
  }
}

TEST(PrefixReuse, ResumeReproducesRecordedRunAtEveryBoundary) {
  // Session-level check underneath the campaign: a fork at ANY boundary of
  // the fault-free recording, with the hook state restored, regenerates
  // exactly the recorded suffix and ends with the same protection stats.
  const TransformerLM model = micro_model();
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 7);
  std::vector<int> prompt = {Vocab::kBos};
  prompt.insert(prompt.end(), samples[0].prompt_tokens.begin(),
                samples[0].prompt_tokens.end());
  GenerateOptions options;
  options.max_new_tokens = 8;
  options.eos_token = -1;

  ProtectionHook rec_hook(model.config(), spec, BoundStore{});
  rec_hook.set_clip_capture(true);
  InferenceSession rec_session(model);
  const HookRegistration rec_reg = rec_session.hooks().add(rec_hook);
  SessionSnapshot snap;
  std::vector<ProtectionState> hook_at;
  const auto recorded = rec_session.generate_recorded(
      prompt, options, snap,
      [&](std::size_t) { hook_at.push_back(rec_hook.capture_state()); });

  // Recording is observationally identical to a plain hooked generate.
  ProtectionHook plain_hook(model.config(), spec, BoundStore{});
  InferenceSession plain_session(model);
  const HookRegistration plain_reg = plain_session.hooks().add(plain_hook);
  const auto plain = plain_session.generate(prompt, options);
  EXPECT_EQ(recorded.tokens, plain.tokens);
  EXPECT_EQ(recorded.positions_run, plain.positions_run);
  const ProtectionStats full = plain_hook.stats();

  ASSERT_TRUE(snap.valid());
  ASSERT_EQ(snap.prompt_len, prompt.size());
  ASSERT_EQ(hook_at.size(), recorded.tokens.size());
  for (std::size_t pos = snap.prompt_len; pos <= snap.last_boundary(); ++pos) {
    ProtectionHook hook(model.config(), spec, BoundStore{});
    InferenceSession session(model);
    const HookRegistration reg = session.hooks().add(hook);
    const auto resumed = session.resume_from(snap, pos, [&] {
      hook.restore_state(hook_at[pos - snap.prompt_len]);
    });
    EXPECT_EQ(resumed.tokens, recorded.tokens) << "fork at " << pos;
    EXPECT_EQ(resumed.positions_run, recorded.positions_run)
        << "fork at " << pos;
    const ProtectionStats got = hook.stats();
    EXPECT_EQ(got.values_checked, full.values_checked) << "fork at " << pos;
    EXPECT_EQ(got.nan_corrected, full.nan_corrected) << "fork at " << pos;
    EXPECT_EQ(got.oob_corrected, full.oob_corrected) << "fork at " << pos;
  }
}

TEST(PrefixReuse, SessionReusableAfterFork) {
  // A session that just forked (its cache holds copied snapshot rows plus
  // its own tail) must run a fresh generation from position 0 (the campaign
  // reuses one session per worker across forked and full trials).
  const TransformerLM model = micro_model();
  InferenceSession session(model);
  GenerateOptions options;
  options.max_new_tokens = 6;
  options.eos_token = -1;
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 3);
  std::vector<int> prompt = {Vocab::kBos};
  prompt.insert(prompt.end(), samples[0].prompt_tokens.begin(),
                samples[0].prompt_tokens.end());

  SessionSnapshot snap;
  const auto recorded = session.generate_recorded(prompt, options, snap);
  const auto forked = session.resume_from(snap, snap.prompt_len + 2);
  EXPECT_EQ(forked.tokens, recorded.tokens);
  const auto fresh = session.generate(prompt, options);
  EXPECT_EQ(fresh.tokens, recorded.tokens);
}

}  // namespace
}  // namespace ft2
