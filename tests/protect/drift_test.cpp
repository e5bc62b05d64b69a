// BoundDriftMonitor: strictly observational. The acceptance pin — a
// campaign with the monitor attached produces bit-identical outcomes,
// per-trial records, detections and protect.* counters to one without it,
// while additionally publishing protect.headroom.* — plus direct unit
// coverage of the headroom accounting.
#include "protect/drift.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "core/ft2.hpp"
#include "fi/trace.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model(std::uint64_t seed = 21) {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 96;
  Xoshiro256 rng(seed);
  return TransformerLM(c, init_weights(c, rng));
}

TEST(BoundDrift, HeadroomBucketsSpanUnitInterval) {
  const auto buckets = headroom_buckets();
  ASSERT_EQ(buckets.size(), 20u);
  EXPECT_DOUBLE_EQ(buckets.front(), 0.05);
  EXPECT_DOUBLE_EQ(buckets.back(), 1.0);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1], buckets[i]);
  }
}

TEST(BoundDrift, ObservesPostFirstTokenDispatches) {
  const TransformerLM model = micro_model();
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
  MetricsRegistry registry;

  ProtectionHook protection(model.config(), spec, BoundStore{}, &registry);
  DriftMonitorOptions options;
  options.obs.metrics = &registry;
  BoundDriftMonitor monitor(protection, options);

  InferenceSession session(model);
  const auto protect_reg = session.hooks().add(protection);
  const auto monitor_reg = session.hooks().add(monitor);  // after protection
  GenerateOptions opts;
  opts.max_new_tokens = 6;
  opts.eos_token = -1;
  const std::vector<int> prompt = {Vocab::kBos, 5, 9, 13};
  session.generate(prompt, opts);

  // Decode-phase dispatches were monitored; first-token ones were not.
  EXPECT_GT(monitor.total_dispatches(), 0u);
  EXPECT_GE(monitor.near_clip_fraction(), 0.0);
  EXPECT_LE(monitor.near_clip_fraction(), 1.0);

  const MetricsSnapshot snap = registry.snapshot();
  std::uint64_t headroom_samples = 0;
  bool observed_any = false;
  for (LayerKind kind : spec.covered) {
    const auto* hist = snap.find_histogram(
        "protect.headroom." + std::string(layer_kind_name(kind)));
    ASSERT_NE(hist, nullptr);
    headroom_samples += hist->count;
    const Bounds& seen = monitor.observed(kind);
    if (seen.valid()) {
      observed_any = true;
      EXPECT_LE(seen.lo, seen.hi);
    }
  }
  EXPECT_EQ(headroom_samples, monitor.total_dispatches());
  EXPECT_TRUE(observed_any);
  const auto* gauge = snap.find_gauge("protect.headroom.near_clip_frac");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, monitor.near_clip_fraction());
}

struct CampaignArtifacts {
  CampaignResult result;
  std::string records_jsonl;
  MetricsSnapshot snapshot;
};

CampaignArtifacts run_with_drift(bool drift) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 99);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  MetricsRegistry registry;
  CampaignConfig config;
  config.trials_per_input = 12;
  config.gen_tokens = 6;
  config.fault_model = FaultModel::kExponentBit;
  config.obs.metrics = &registry;
  config.capture_clips = true;
  config.drift_monitor = drift;

  CampaignArtifacts out;
  TraceCollector trace;
  out.result = run_campaign(model, inputs, SchemeKind::kFt2, BoundStore{},
                            config, trace.callback());
  // trial_ms is wall time — documented as excluded from determinism
  // comparisons — so zero it before serializing.
  TraceCollector normalized;
  for (TrialRecord r : trace.records()) {
    r.trial_ms = 0.0;
    normalized.callback()(r);
  }
  std::ostringstream os;
  normalized.write_jsonl(os);
  out.records_jsonl = os.str();
  out.snapshot = registry.snapshot();
  return out;
}

TEST(BoundDrift, CampaignIsBitIdenticalWithMonitorOnOrOff) {
  const CampaignArtifacts off = run_with_drift(false);
  const CampaignArtifacts on = run_with_drift(true);
  ASSERT_GT(off.result.trials, 0u);

  // Outcomes and the full per-trial records (detections, detect positions,
  // clip events, generated text — everything serialized) are identical.
  EXPECT_EQ(on.result.trials, off.result.trials);
  EXPECT_EQ(on.result.masked_identical, off.result.masked_identical);
  EXPECT_EQ(on.result.masked_semantic, off.result.masked_semantic);
  EXPECT_EQ(on.result.sdc, off.result.sdc);
  EXPECT_EQ(on.result.not_injected, off.result.not_injected);
  EXPECT_EQ(on.records_jsonl, off.records_jsonl);

  // Every metric the drift-off run published exists unchanged in the
  // drift-on snapshot (campaign.* and protect.* counters included);
  // wall-time histograms are exempt (they measure time, not behaviour).
  for (const auto& c : off.snapshot.counters) {
    EXPECT_EQ(on.snapshot.counter_value(c.name), c.value) << c.name;
  }
  for (const auto& h : off.snapshot.histograms) {
    if (h.name == "campaign.trial_ms") continue;
    const auto* matching = on.snapshot.find_histogram(h.name);
    ASSERT_NE(matching, nullptr) << h.name;
    EXPECT_EQ(matching->count, h.count) << h.name;
    EXPECT_EQ(matching->counts, h.counts) << h.name;
  }

  // The drift-on run additionally published headroom data.
  std::uint64_t headroom = 0;
  for (const auto& h : on.snapshot.histograms) {
    if (h.name.rfind("protect.headroom.", 0) == 0) headroom += h.count;
  }
  EXPECT_GT(headroom, 0u);
  EXPECT_NE(on.snapshot.find_gauge("protect.headroom.near_clip_frac"),
            nullptr);
  // ...and the drift-off run did not.
  for (const auto& h : off.snapshot.histograms) {
    EXPECT_NE(h.name.rfind("protect.headroom.", 0), 0u) << h.name;
  }
}

/// The headroom a campaign published: per covered kind the histogram's
/// bucket counts and total, and the near-clip gauge.
struct HeadroomCapture {
  std::map<std::string, std::pair<std::uint64_t, std::vector<std::uint64_t>>>
      hist;
  double near_clip = -1.0;
};

HeadroomCapture campaign_headroom(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  bool prefix_reuse, ThreadPool* pool) {
  MetricsRegistry registry;
  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 30;
  config.gen_tokens = 6;
  config.seed = 3;
  config.drift_monitor = true;
  config.prefix_reuse = prefix_reuse;
  config.pool = pool;
  config.obs.metrics = &registry;
  run_campaign(model, inputs, SchemeRef::parse("ft2"), BoundStore{}, config);
  const MetricsSnapshot snap = registry.snapshot();
  HeadroomCapture cap;
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("protect.headroom.", 0) != 0) continue;
    cap.hist[h.name] = {h.count, h.counts};
  }
  if (const auto* g = snap.find_gauge("protect.headroom.near_clip_frac")) {
    cap.near_clip = g->value;
  }
  return cap;
}

TEST(BoundDrift, HeadroomIdenticalWithPrefixReuseOnOff) {
  // The micro-model campaign of PrefixReuse.DriftMonitorDoesNotHoldBackARejoin:
  // most trials fork from the recording and many rejoin it, so a monitor
  // that sampled only the forwards a fork runs would miss most samples.
  const TransformerLM model = micro_model(47);
  const auto inputs = prepare_eval_inputs(
      model, make_generator(DatasetKind::kSynthQA)->generate_many(3, 5), 6,
      false);
  // One worker runs the trials in order, so the last-writer gauge holds
  // the same trial's fraction in both runs.
  ThreadPool pool1(1), pool2(2);
  const HeadroomCapture off = campaign_headroom(model, inputs, false, &pool1);
  const HeadroomCapture on = campaign_headroom(model, inputs, true, &pool1);
  ASSERT_FALSE(off.hist.empty());
  std::uint64_t samples = 0;
  for (const auto& [name, hist] : off.hist) {
    ASSERT_EQ(on.hist.count(name), 1u) << name;
    EXPECT_EQ(on.hist.at(name).first, hist.first) << name;
    EXPECT_EQ(on.hist.at(name).second, hist.second) << name;
    samples += hist.first;
  }
  EXPECT_EQ(on.hist.size(), off.hist.size());
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(on.near_clip, off.near_clip);
  // Bucket counts do not depend on which worker ran a trial.
  const HeadroomCapture on2 = campaign_headroom(model, inputs, true, &pool2);
  for (const auto& [name, hist] : off.hist) {
    EXPECT_EQ(on2.hist.at(name).second, hist.second) << name;
  }

  // Observed bounds and counts, per trial: a fork that replays the
  // recording's prefix and rejoined tail equals the full faulty run.
  GenerateOptions options;
  options.max_new_tokens = 6;
  options.eos_token = -1;
  const std::vector<int>& prompt = inputs.front().prompt;
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
  ProtectionHook rec_hook(model.config(), spec);
  rec_hook.set_clip_capture(true);
  BoundDriftMonitor rec_monitor(rec_hook);
  rec_monitor.set_sample_capture(true);
  InferenceSession rec_session(model);
  const HookRegistration rec_reg = rec_session.hooks().add(rec_hook);
  const HookRegistration rec_mon = rec_session.hooks().add(rec_monitor);
  SessionSnapshot snap;
  std::vector<ProtectionState> hook_at;
  std::vector<std::size_t> drift_at;
  rec_session.generate_recorded(prompt, options, snap, [&](std::size_t) {
    hook_at.push_back(rec_hook.capture_state());
    drift_at.push_back(rec_monitor.samples().size());
  });
  const std::vector<DriftSample> recorded = rec_monitor.samples();

  std::size_t rejoins = 0;
  const int last = static_cast<int>(model.config().n_blocks) - 1;
  for (std::size_t pos = snap.prompt_len; pos < snap.last_boundary(); ++pos) {
    for (const LayerKind kind : {LayerKind::kFc2, LayerKind::kVProj}) {
      FaultPlan plan;
      plan.position = pos;
      plan.site = LayerSite{kind == LayerKind::kFc2 ? last : 0, kind};
      plan.neuron = 1;
      plan.vtype = ValueType::kF16;
      plan.flips.count = 1;
      plan.flips.bits[0] = 13;  // exponent bit: the value grows 2^8-fold

      InjectorHook full_injector(plan);
      ProtectionHook full_hook(model.config(), spec);
      BoundDriftMonitor full_monitor(full_hook);
      InferenceSession full_session(model);
      const HookRegistration f1 = full_session.hooks().add(full_injector);
      const HookRegistration f2 = full_session.hooks().add(full_hook);
      const HookRegistration f3 = full_session.hooks().add(full_monitor);
      full_session.generate(prompt, options);

      InjectorHook injector(plan);
      ProtectionHook hook(model.config(), spec);
      BoundDriftMonitor monitor(hook);
      InferenceSession session(model);
      const HookRegistration r1 = session.hooks().add(injector);
      const HookRegistration r2 = session.hooks().add(hook);
      const HookRegistration r3 = session.hooks().add(monitor);
      const std::span<const DriftSample> rec(recorded);
      const std::size_t b0 = pos - snap.prompt_len;
      bool rejoined = false;
      session.resume_from(
          snap, pos,
          [&] {
            hook.restore_state(hook_at[b0]);
            monitor.replay(rec.first(drift_at[b0]));
          },
          [&](std::size_t b) {
            if (!injector.fired() ||
                !hook.scheme().state_matches(hook_at[b].scheme.get())) {
              return false;
            }
            monitor.replay(rec.subspan(drift_at[b]));
            rejoined = true;
            return true;
          });
      rejoins += rejoined ? 1 : 0;

      const std::string label = std::string(layer_kind_name(kind)) +
                                " fault at " + std::to_string(pos);
      EXPECT_EQ(monitor.total_dispatches(), full_monitor.total_dispatches())
          << label;
      EXPECT_EQ(monitor.near_clip_dispatches(),
                full_monitor.near_clip_dispatches())
          << label;
      for (const LayerKind covered : spec.covered) {
        EXPECT_EQ(f32_bits(monitor.observed(covered).lo),
                  f32_bits(full_monitor.observed(covered).lo))
            << label << " " << layer_kind_name(covered);
        EXPECT_EQ(f32_bits(monitor.observed(covered).hi),
                  f32_bits(full_monitor.observed(covered).hi))
            << label << " " << layer_kind_name(covered);
      }
    }
  }
  EXPECT_GT(rejoins, 0u);
}

}  // namespace
}  // namespace ft2
