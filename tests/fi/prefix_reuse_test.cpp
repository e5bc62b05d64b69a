// Fault-free prefix reuse is a pure throughput knob: campaigns with
// CampaignConfig::prefix_reuse on vs. off must be bit-identical in
// outcomes, per-trial FaultPlans, TrialRecord.detections and protect.*
// counters — across pool sizes and for both decode-phase and prefill-phase
// (first_token_only) fault placements. Also covers the session-level
// snapshot/fork API directly and the clamped-fork (kNotInjected) edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/ft2.hpp"
#include "fi/trace.hpp"

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

// ---------------------------------------------------------------------------
// Rejoin: a fork that is bit-identical to the recording again ends there.

/// The perfbench campaign-ft2 model: a 4-block Llama, d_model 128.
TransformerLM bench_model() {
  ModelConfig c;
  c.name = "perfbench-llama";
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 128;
  c.n_heads = 8;
  c.n_blocks = 4;
  c.d_ff = 384;
  c.max_seq = 256;
  Xoshiro256 rng(2026);
  return TransformerLM(c, init_weights(c, rng));
}

/// A registry-scheme campaign captured for comparison: records serialized
/// without trial_ms, plus a run-private metrics snapshot.
struct RejoinCapture {
  CampaignResult result;
  std::vector<std::string> records;  ///< trial_record_to_json, trial order
  std::vector<TrialRecord> raw;
  MetricsSnapshot metrics;
};

RejoinCapture run_ref(const TransformerLM& model,
                      const std::vector<EvalInput>& inputs,
                      const SchemeRef& scheme, const BoundStore& bounds,
                      CampaignConfig config, bool prefix_reuse,
                      ThreadPool* pool) {
  MetricsRegistry registry;
  config.prefix_reuse = prefix_reuse;
  config.pool = pool;
  config.obs.metrics = &registry;
  RejoinCapture cap;
  cap.result = run_campaign(model, inputs, scheme, bounds, config,
                            [&](const TrialRecord& r) {
                              TrialRecord copy = r;
                              copy.trial_ms = 0.0;
                              cap.records.push_back(
                                  trial_record_to_json(copy).dump(-1));
                              cap.raw.push_back(copy);
                            });
  cap.metrics = registry.snapshot();
  return cap;
}

bool has_prefix(std::string_view name, std::string_view prefix) {
  return name.substr(0, prefix.size()) == prefix;
}

/// `on` (prefix reuse) against `off` (full replay): every record field but
/// trial_ms, every protect.* and campaign.* counter (campaign.prefix.* only
/// exists with reuse on), and the protect.* histogram populations but the
/// drift monitor's headroom samples, which cover only the forwards a trial
/// runs.
void expect_same_as_replay(const RejoinCapture& off, const RejoinCapture& on,
                           const std::string& label) {
  EXPECT_EQ(off.result.sdc, on.result.sdc) << label;
  EXPECT_EQ(off.result.not_injected, on.result.not_injected) << label;
  ASSERT_EQ(off.records.size(), on.records.size()) << label;
  for (std::size_t t = 0; t < off.records.size(); ++t) {
    EXPECT_EQ(off.records[t], on.records[t]) << label << " trial " << t;
  }
  for (const MetricsSnapshot* side : {&off.metrics, &on.metrics}) {
    for (const auto& c : side->counters) {
      if (!has_prefix(c.name, "protect.") && !has_prefix(c.name, "campaign.")) {
        continue;
      }
      if (has_prefix(c.name, "campaign.prefix.")) continue;
      EXPECT_EQ(off.metrics.counter_value(c.name),
                on.metrics.counter_value(c.name))
          << label << " " << c.name;
    }
  }
  for (const auto& h : off.metrics.histograms) {
    if (!has_prefix(h.name, "protect.") ||
        has_prefix(h.name, "protect.headroom.")) {
      continue;
    }
    const auto* other = on.metrics.find_histogram(h.name);
    ASSERT_NE(other, nullptr) << label << " " << h.name;
    EXPECT_EQ(h.counts, other->counts) << label << " " << h.name;
  }
}

std::uint64_t rejoined(const RejoinCapture& cap) {
  return cap.metrics.counter_value("campaign.prefix.rejoined");
}

/// SynthQA inputs padded to `prompt_len`-token prompts, as the benchmark's
/// campaign pads them.
std::vector<EvalInput> padded_inputs(const TransformerLM& model,
                                     std::size_t n, std::size_t prompt_len,
                                     std::size_t gen_tokens,
                                     std::uint64_t seed) {
  auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(n, seed);
  const int vocab = static_cast<int>(model.config().vocab_size);
  for (Sample& s : samples) {
    std::vector<int> padded;
    for (std::size_t i = 0;
         padded.size() + s.prompt_tokens.size() + 1 < prompt_len; ++i) {
      padded.push_back(static_cast<int>(i * 13 + 5) % vocab);
    }
    padded.insert(padded.end(), s.prompt_tokens.begin(), s.prompt_tokens.end());
    s.prompt_tokens = std::move(padded);
  }
  return prepare_eval_inputs(model, samples, gen_tokens, false);
}

TEST(PrefixReuse, BenchCampaignRejoinsAndMatchesFullReplay) {
  const TransformerLM model = bench_model();
  const auto inputs = padded_inputs(model, 3, 64, 16, 77);
  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 40;
  config.gen_tokens = 16;
  config.seed = 11;
  const SchemeRef ft2 = SchemeRef::parse("ft2");

  ThreadPool pool1(1), pool4(4);
  const auto off = run_ref(model, inputs, ft2, {}, config, false, &pool1);
  for (ThreadPool* pool : {&pool1, &pool4}) {
    const auto on = run_ref(model, inputs, ft2, {}, config, true, pool);
    const std::string label = "pool " + std::to_string(pool->size());
    expect_same_as_replay(off, on, label);
    EXPECT_GT(rejoined(on), 0u) << label;
    EXPECT_LE(rejoined(on), on.metrics.counter_value("campaign.prefix.hit"));
    // The rejoined tails count as reused positions: more than the forked
    // trials' fork positions alone.
    double fork_positions = 0.0;
    for (const TrialRecord& r : on.raw) {
      const std::size_t prompt_len = inputs[r.input_index].prompt.size();
      if (r.plan.position < prompt_len) continue;  // a full run
      fork_positions += static_cast<double>(
          std::min(r.plan.position, prompt_len + config.gen_tokens - 1));
    }
    const auto* reused =
        on.metrics.find_histogram("campaign.prefix.reused_positions");
    ASSERT_NE(reused, nullptr);
    EXPECT_GT(reused->sum, fork_positions) << label;
  }
}

TEST(PrefixReuse, RejoinAddsTheRemaindersOwnDetectionsAndClips) {
  // Offline FT2 bounds scaled down so far that fault-free runs clip at
  // most positions: every rejoined trial skips a tail with detections and
  // clip events of its own, which the hook must add exactly.
  const TransformerLM model = micro_model();
  const auto gen = make_generator(DatasetKind::kSynthQA);
  OfflineProfileOptions profile;
  profile.n_inputs = 4;
  profile.max_new_tokens = 6;
  const BoundStore bounds = profile_offline_bounds(model, *gen, profile);
  const auto inputs =
      prepare_eval_inputs(model, gen->generate_many(3, 31), 8, false);
  CampaignConfig config = base_config();
  config.gen_tokens = 8;
  config.trials_per_input = 40;
  config.capture_clips = true;
  const SchemeRef scheme = SchemeRef::parse("ft2_offline:scale=0.5");

  ThreadPool pool2(2);
  const auto off =
      run_ref(model, inputs, scheme, bounds, config, false, &pool2);
  const auto on = run_ref(model, inputs, scheme, bounds, config, true, &pool2);
  expect_same_as_replay(off, on, "scaled bounds");
  EXPECT_GT(rejoined(on), 0u);
  // The skipped tails really carried clips: records log clips after their
  // injection position.
  std::size_t late_clips = 0;
  for (const TrialRecord& r : off.raw) {
    for (const ClipEvent& c : r.clips) {
      late_clips += c.position > r.plan.position ? 1 : 0;
    }
  }
  EXPECT_GT(late_clips, 0u);
}

TEST(PrefixReuse, NoRejoinWhileAnInjectorIsPendingOrForChecksumSchemes) {
  const TransformerLM model = micro_model();
  const auto inputs = prepare_eval_inputs(
      model, make_generator(DatasetKind::kSynthQA)->generate_many(3, 5), 6,
      false);
  ThreadPool pool2(2);

  // Two faults per trial: a fork may rejoin only once both have fired, so
  // full replay's second fault is never skipped.
  CampaignConfig two = base_config();
  two.faults_per_trial = 2;
  two.trials_per_input = 30;
  const SchemeRef ft2 = SchemeRef::parse("ft2");
  const auto two_off = run_ref(model, inputs, ft2, {}, two, false, &pool2);
  const auto two_on = run_ref(model, inputs, ft2, {}, two, true, &pool2);
  expect_same_as_replay(two_off, two_on, "two faults");

  // abft-linear does not implement state_matches: forks run to the end.
  CampaignConfig one = base_config();
  one.trials_per_input = 30;
  const SchemeRef abft = SchemeRef::parse("abft-linear");
  const auto abft_off = run_ref(model, inputs, abft, {}, one, false, &pool2);
  const auto abft_on = run_ref(model, inputs, abft, {}, one, true, &pool2);
  expect_same_as_replay(abft_off, abft_on, "abft-linear");
  EXPECT_GT(abft_on.metrics.counter_value("campaign.prefix.hit"), 0u);
  EXPECT_EQ(rejoined(abft_on), 0u);
}

TEST(PrefixReuse, DriftMonitorDoesNotHoldBackARejoin) {
  // The monitor only observes, so campaign.* counters (rejoins included)
  // match with it on or off, and records still match full replay.
  const TransformerLM model = micro_model();
  const auto inputs = prepare_eval_inputs(
      model, make_generator(DatasetKind::kSynthQA)->generate_many(3, 5), 6,
      false);
  CampaignConfig config = base_config();
  config.trials_per_input = 30;
  const SchemeRef ft2 = SchemeRef::parse("ft2");
  ThreadPool pool2(2);
  const auto plain = run_ref(model, inputs, ft2, {}, config, true, &pool2);
  config.drift_monitor = true;
  const auto off = run_ref(model, inputs, ft2, {}, config, false, &pool2);
  const auto on = run_ref(model, inputs, ft2, {}, config, true, &pool2);
  expect_same_as_replay(off, on, "drift");
  EXPECT_GT(rejoined(on), 0u);
  EXPECT_EQ(rejoined(on), rejoined(plain));
}

/// Records one site's output at every position.
class SiteProbe final : public OutputHook {
 public:
  explicit SiteProbe(LayerSite site) : site_(site) {}
  void on_output(const HookContext& ctx, std::span<float> values) override {
    if (ctx.site != site_) return;
    for (std::size_t r = 0; r < ctx.n_positions; ++r) {
      const auto row = ctx.row(values, r);
      rows.emplace_back(row.begin(), row.end());
    }
  }
  std::vector<std::vector<float>> rows;  ///< indexed by position

 private:
  LayerSite site_;
};

/// A fork of `snap` at `pos` with the campaign's rejoin rule: every
/// injector fired and the scheme's state matches the recording's.
struct ForkedTrial {
  GenerateResult result;
  std::optional<std::size_t> rejoined_at;
};

ForkedTrial fork_with_rejoin(InferenceSession& session,
                             const SessionSnapshot& snap,
                             const std::vector<ProtectionState>& hook_at,
                             std::size_t pos, InjectorHook& injector,
                             ProtectionHook& protection) {
  ForkedTrial trial;
  trial.result = session.resume_from(
      snap, pos,
      [&] { protection.restore_state(hook_at[pos - snap.prompt_len]); },
      [&](std::size_t b) {
        if (!injector.fired() ||
            !protection.scheme().state_matches(hook_at[b].scheme.get())) {
          return false;
        }
        trial.rejoined_at = b;
        return true;
      });
  if (trial.rejoined_at.has_value()) {
    protection.rejoin(
        std::span<const ProtectionState>(hook_at).subspan(*trial.rejoined_at),
        snap.prompt_len + *trial.rejoined_at);
  }
  return trial;
}

TEST(PrefixReuse, RejoinTakesTheRemaindersFirstDetection) {
  // The recording's first detection is at the fork forward itself, but the
  // trial's fault removes exactly that violation, so the trial does not
  // detect there. Its first detection must be the remainder's (the first
  // later recorded forward whose NaN/out-of-bound tallies grew, or none),
  // never the recording's own first detection. The protected site is one
  // output of the last block, which no K/V row depends on, so the trial
  // rejoins whenever its next token is the recorded one.
  const TransformerLM model = micro_model();
  const int last = static_cast<int>(model.config().n_blocks) - 1;
  GenerateOptions options;
  options.max_new_tokens = 12;
  options.eos_token = -1;
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(16, 41);

  std::size_t checked = 0;
  for (const LayerKind kind :
       {LayerKind::kOutProj, LayerKind::kFc1, LayerKind::kFc2}) {
    const LayerSite site{last, kind};
    for (const Sample& sample : samples) {
      std::vector<int> prompt = {Vocab::kBos};
      prompt.insert(prompt.end(), sample.prompt_tokens.begin(),
                    sample.prompt_tokens.end());
      // The unprotected run picks the fork position p: the first decode
      // position whose largest |value| at the site beats every earlier
      // position's and its own runner-up, so a bound between them clips
      // exactly one value there and none before.
      SiteProbe probe(site);
      InferenceSession probe_session(model);
      const HookRegistration probe_reg = probe_session.hooks().add(probe);
      probe_session.generate(prompt, options);
      std::size_t p = 0, neuron = 0;
      float bound = 0.0f, earlier = 0.0f;
      for (std::size_t t = 0; t < probe.rows.size() && p == 0; ++t) {
        float top = 0.0f, second = 0.0f;
        std::size_t arg = 0;
        for (std::size_t j = 0; j < probe.rows[t].size(); ++j) {
          const float a = std::abs(probe.rows[t][j]);
          if (a > top) {
            second = top;
            top = a;
            arg = j;
          } else {
            second = std::max(second, a);
          }
        }
        const float floor = std::max(earlier, second);
        if (t >= prompt.size() && top > 1.01f * floor) {
          p = t;
          neuron = arg;
          bound = 0.5f * (top + floor);
        }
        earlier = std::max(earlier, top);
      }
      if (p == 0) continue;

      SchemeSpec spec = scheme_spec(SchemeKind::kFt2Offline, model.config());
      spec.covered = {kind};
      BoundStore bounds(model.config());
      for (int b = 0; b <= last; ++b) {
        Bounds& slot = bounds.at(LayerSite{b, kind});
        slot.lo = b == last ? -bound : -1e30f;
        slot.hi = b == last ? bound : 1e30f;
      }
      // A flip that lands the one violating value inside the bound.
      FaultPlan plan;
      plan.position = p;
      plan.site = site;
      plan.neuron = neuron;
      plan.vtype = ValueType::kF32;
      for (int bit = 30; bit >= 23 && plan.flips.count == 0; --bit) {
        BitFlips f;
        f.count = 1;
        f.bits[0] = bit;
        const float v =
            apply_bit_flips(probe.rows[p][neuron], f, ValueType::kF32);
        if (std::isfinite(v) && std::abs(v) < bound) plan.flips = f;
      }
      if (plan.flips.count == 0) continue;

      // The recording: protected, fault-free, state captured per boundary.
      ProtectionHook rec_hook(model.config(), spec, bounds);
      rec_hook.set_clip_capture(true);
      InferenceSession rec_session(model);
      const HookRegistration rec_reg = rec_session.hooks().add(rec_hook);
      SessionSnapshot snap;
      std::vector<ProtectionState> hook_at;
      rec_session.generate_recorded(prompt, options, snap, [&](std::size_t) {
        hook_at.push_back(rec_hook.capture_state());
      });
      ASSERT_EQ(rec_hook.first_detect_position(), static_cast<long long>(p));

      // Full replay with the fault.
      InjectorHook full_injector(plan);
      ProtectionHook full_hook(model.config(), spec, bounds);
      InferenceSession full_session(model);
      const HookRegistration fi = full_session.hooks().add(full_injector);
      const HookRegistration fp = full_session.hooks().add(full_hook);
      const GenerateResult full = full_session.generate(prompt, options);
      ASSERT_TRUE(full_injector.fired());
      ASSERT_NE(full_hook.first_detect_position(), static_cast<long long>(p));

      // The fork, with the rejoin rule.
      InjectorHook injector(plan);
      ProtectionHook hook(model.config(), spec, bounds);
      InferenceSession session(model);
      const HookRegistration ri = session.hooks().add(injector);
      const HookRegistration rp = session.hooks().add(hook);
      const ForkedTrial trial =
          fork_with_rejoin(session, snap, hook_at, p, injector, hook);

      EXPECT_EQ(trial.result.tokens, full.tokens);
      EXPECT_EQ(trial.result.positions_run, full.positions_run);
      EXPECT_EQ(hook.first_detect_position(),
                full_hook.first_detect_position());
      EXPECT_EQ(hook.stats().oob_corrected, full_hook.stats().oob_corrected);
      EXPECT_EQ(hook.stats().nan_corrected, full_hook.stats().nan_corrected);
      EXPECT_EQ(hook.stats().values_checked,
                full_hook.stats().values_checked);
      if (trial.rejoined_at.has_value()) ++checked;
    }
  }
  // The case this test is for happened: a trial rejoined past the
  // recording's first detection.
  EXPECT_GT(checked, 0u);
}

/// Counts decode forwards (one FC1 dispatch per block-0 position).
class ForwardCounter final : public OutputHook {
 public:
  void on_output(const HookContext& ctx, std::span<float>) override {
    if (ctx.site == LayerSite{0, LayerKind::kFc1}) forwards += ctx.n_positions;
  }
  std::size_t forwards = 0;
};

TEST(PrefixReuse, ResumeReturnsTheRecordingWhenTheRejoinCallbackAccepts) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 7);
  std::vector<int> prompt = {Vocab::kBos};
  prompt.insert(prompt.end(), samples[0].prompt_tokens.begin(),
                samples[0].prompt_tokens.end());
  GenerateOptions options;
  options.max_new_tokens = 8;
  options.eos_token = -1;
  InferenceSession rec(model);
  SessionSnapshot snap;
  const GenerateResult recorded = rec.generate_recorded(prompt, options, snap);
  const std::size_t fork = snap.prompt_len + 2;

  // Accepting at the first boundary asked ends the fork after its first
  // forward, with the recorded result.
  {
    ForwardCounter counter;
    InferenceSession session(model);
    const HookRegistration reg = session.hooks().add(counter);
    std::vector<std::size_t> asked;
    const GenerateResult got = session.resume_from(
        snap, fork, {}, [&](std::size_t b) {
          asked.push_back(b);
          return true;
        });
    EXPECT_EQ(got.tokens, recorded.tokens);
    EXPECT_EQ(got.positions_run, recorded.positions_run);
    EXPECT_EQ(got.hit_max, recorded.hit_max);
    EXPECT_EQ(asked, std::vector<std::size_t>{3});
    EXPECT_EQ(counter.forwards, 1u);
  }
  // Declining runs on to the end; it is asked at every boundary with
  // forwards left to skip.
  {
    ForwardCounter counter;
    InferenceSession session(model);
    const HookRegistration reg = session.hooks().add(counter);
    std::vector<std::size_t> asked;
    const GenerateResult got = session.resume_from(
        snap, fork, {}, [&](std::size_t b) {
          asked.push_back(b);
          return false;
        });
    EXPECT_EQ(got.tokens, recorded.tokens);
    EXPECT_EQ(got.positions_run, recorded.positions_run);
    EXPECT_EQ(asked, (std::vector<std::size_t>{3, 4, 5, 6}));
    EXPECT_EQ(counter.forwards, recorded.tokens.size() - 1 - 2);
  }
  // A fork whose stored K/V rows differ is never asked.
  {
    FaultPlan plan;
    plan.position = fork;
    plan.site = LayerSite{0, LayerKind::kVProj};
    plan.neuron = 0;
    plan.vtype = ValueType::kF32;
    plan.flips.count = 1;
    plan.flips.bits[0] = 22;  // a mantissa bit: the stored V row changes
    InjectorHook injector(plan);
    InferenceSession session(model);
    const HookRegistration reg = session.hooks().add(injector);
    std::size_t asked = 0;
    session.resume_from(snap, fork, {}, [&](std::size_t) {
      ++asked;
      return true;
    });
    EXPECT_TRUE(injector.fired());
    EXPECT_EQ(asked, 0u);
  }
}

}  // namespace
}  // namespace ft2
