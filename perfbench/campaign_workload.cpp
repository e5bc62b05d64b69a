// campaign-ft2: the paper's own workload, a closed-loop batch job. Decode-
// phase exponent-bit single-fault trials under ft2 with fault-free prefix
// reuse, over SynthQA samples padded to 64-token prompts, 16 generated
// tokens each. The trial count is fixed by --seconds and a frozen nominal
// rate, never by a measured one.
#include <cmath>
#include <iostream>
#include <memory>

#include "common/check.hpp"
#include "data/dataset.hpp"
#include "fi/campaign.hpp"
#include "protect/scheme.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kInputs = 8;
constexpr std::size_t kPromptLen = 64;
constexpr std::size_t kGenTokens = 16;
/// Trials per run second; with kCampaignShare this fixes the trial count.
constexpr double kTrialsPerRunSecond = 150.0;
/// Share of --seconds the campaign is sized for; the rest covers set-up
/// and verification.
constexpr double kCampaignShare = 0.85;
/// SLO on one trial's latency, start to classified output.
constexpr double kTrialLimitMs = 25.0;
/// Trials replayed with prefix reuse off for verification.
constexpr std::size_t kVerifyTrials = 24;

struct CampaignSetup {
  std::unique_ptr<ft2::TransformerLM> model;
  std::vector<ft2::EvalInput> inputs;
};

/// SynthQA samples padded to kPromptLen-token prompts (<bos> included), with
/// fault-free references from prepare_eval_inputs.
std::vector<ft2::EvalInput> make_inputs(const ft2::TransformerLM& model,
                                        std::uint64_t seed,
                                        ft2::ThreadPool* pool) {
  auto samples = ft2::make_generator(ft2::DatasetKind::kSynthQA)
                     ->generate_many(kInputs, seed);
  const int vocab = static_cast<int>(model.config().vocab_size);
  for (ft2::Sample& s : samples) {
    std::vector<int> padded;
    for (std::size_t i = 0;
         padded.size() + s.prompt_tokens.size() + 1 < kPromptLen; ++i) {
      padded.push_back(static_cast<int>(i * 13 + 5) % vocab);
    }
    padded.insert(padded.end(), s.prompt_tokens.begin(), s.prompt_tokens.end());
    s.prompt_tokens = std::move(padded);
  }
  return ft2::prepare_eval_inputs(model, samples, kGenTokens, false, pool);
}

bool same_plan(const ft2::FaultPlan& a, const ft2::FaultPlan& b) {
  return a.position == b.position && a.site == b.site && a.neuron == b.neuron &&
         a.vtype == b.vtype && a.in_first_token == b.in_first_token &&
         a.flips.count == b.flips.count && a.flips.bits == b.flips.bits;
}

bool same_trial(const ft2::TrialRecord& a, const ft2::TrialRecord& b) {
  return a.trial == b.trial && a.input_index == b.input_index &&
         a.outcome == b.outcome && a.detections == b.detections &&
         a.generated_text == b.generated_text && same_plan(a.plan, b.plan);
}

struct CampaignRun {
  double wall_s = 0.0;
  double range_ms = 0.0;      ///< driver-clock sum over the range calls
  double reference_ms = 0.0;  ///< the same for the untraced twin ranges
  ft2::CampaignResult result;
  std::vector<ft2::TrialRecord> records;  ///< indexed by trial
  std::vector<bool> seen;
};

/// Runs the campaign one input's trial range per call, so every call is a
/// traced span; the work equals one run_campaign call (prefix recordings
/// are made per input either way). With `reference`, each range first runs
/// under that config too (the traced run's untraced twin, in one span of
/// its own), so the two are timed side by side on the same host state.
CampaignRun run_ranges(const ft2::TransformerLM& model,
                       const std::vector<ft2::EvalInput>& inputs,
                       const ft2::SchemeSpec& spec,
                       const ft2::CampaignConfig& config,
                       const ft2::CampaignConfig* reference,
                       ft2::Tracer& tracer) {
  CampaignRun run;
  const std::size_t total = inputs.size() * config.trials_per_input;
  run.records.resize(total);
  run.seen.assign(total, false);
  const Clock::time_point start = Clock::now();
  ft2::TraceSpan phase = tracer.span("workload.campaign");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::size_t lo = i * config.trials_per_input;
    const std::size_t hi = lo + config.trials_per_input;
    if (reference != nullptr) {
      const Clock::time_point t0 = Clock::now();
      {
        ft2::TraceSpan twin = tracer.span("obs.reference_range");
        ft2::run_campaign_range(model, inputs, spec, ft2::BoundStore{},
                                *reference, lo, hi);
      }
      run.reference_ms += ms_between(t0, Clock::now());
    }
    const Clock::time_point t0 = Clock::now();
    {
      ft2::TraceSpan range = tracer.span("fi.campaign_range");
      run.result.merge(ft2::run_campaign_range(
          model, inputs, spec, ft2::BoundStore{}, config, lo, hi,
          [&run](const ft2::TrialRecord& rec) {
            run.records[rec.trial] = rec;
            run.seen[rec.trial] = true;
          }));
    }
    run.range_ms += ms_between(t0, Clock::now());
  }
  phase.end();
  run.wall_s = ms_between(start, Clock::now()) / 1e3;
  return run;
}

}  // namespace

RunResult run_campaign_ft2(const RunContext& ctx) {
  const std::size_t trials_per_input = static_cast<std::size_t>(std::llround(
      kTrialsPerRunSecond * kCampaignShare * ctx.seconds /
      static_cast<double>(kInputs)));
  FT2_CHECK_MSG(trials_per_input > 0, "--seconds too small");

  // Set-up: model and the evaluation inputs with their fault-free
  // references.
  std::vector<double> prepare_s;
  double setup_s = 0.0;
  const std::unique_ptr<CampaignSetup> setup = build_timed(
      [&] {
        auto s = std::make_unique<CampaignSetup>();
        s->model = std::make_unique<ft2::TransformerLM>(make_model());
        const Clock::time_point t0 = Clock::now();
        s->inputs = make_inputs(*s->model, ctx.seed * 7919 + 77, ctx.pool);
        prepare_s.push_back(ms_between(t0, Clock::now()) / 1e3);
        return s;
      },
      setup_s);
  const ft2::TransformerLM& model = *setup->model;
  const std::vector<ft2::EvalInput>& inputs = setup->inputs;
  const ft2::SchemeSpec spec =
      ft2::scheme_spec(ft2::SchemeKind::kFt2, model.config());

  ft2::MetricsRegistry registry;
  ft2::CampaignConfig config;
  config.fault_model = ft2::FaultModel::kExponentBit;
  config.trials_per_input = trials_per_input;
  config.gen_tokens = kGenTokens;
  config.seed = ctx.seed * 0x9E3779B97F4A7C15ull + 11;
  config.pool = ctx.pool;
  config.prefix_reuse = true;
  config.obs = ctx.sinks(registry);

  ft2::MetricsRegistry reference_registry;
  ft2::CampaignConfig reference = config;
  reference.obs = ctx.sinks(reference_registry);
  const CampaignRun run =
      run_ranges(model, inputs, spec, config,
                 ctx.trace ? &reference : nullptr, *ctx.tracer);
  ctx.tracer->set_enabled(false);

  // Verification: a spread sample of trials must match a full replay with
  // prefix reuse off — same outcome, plan, detections and generated text.
  const std::size_t total = run.records.size();
  std::size_t missing = 0;
  for (bool seen : run.seen) missing += seen ? 0 : 1;
  std::size_t mismatches = 0;
  ft2::MetricsRegistry replay_registry;
  ft2::CampaignConfig replay = config;
  replay.prefix_reuse = false;
  replay.obs = ctx.sinks(replay_registry);
  for (std::size_t k = 0; k < kVerifyTrials; ++k) {
    const std::size_t t = (k * total + total / 2) / kVerifyTrials;
    ft2::TrialRecord again;
    ft2::run_campaign_range(model, inputs, spec, ft2::BoundStore{}, replay, t,
                            t + 1,
                            [&again](const ft2::TrialRecord& rec) { again = rec; });
    if (run.seen[t] && !same_trial(run.records[t], again)) {
      std::cerr << "perfbench: trial " << t
                << " differs from its replay without prefix reuse\n";
      ++mismatches;
    }
  }

  RunResult r;
  r.attempted = total;
  r.failed = missing + mismatches;
  r.correct = missing == 0 && mismatches == 0;
  r.bypassed_layers = {"serve.", "loadgen."};
  MetricMap& m = r.metrics;

  std::vector<double> trial_ms;
  std::size_t detected = 0;
  std::size_t within_limit = 0;
  for (std::size_t t = 0; t < total; ++t) {
    if (!run.seen[t]) continue;
    const ft2::TrialRecord& rec = run.records[t];
    trial_ms.push_back(rec.trial_ms);
    if (rec.detections > 0) ++detected;
    if (rec.trial_ms <= kTrialLimitMs) ++within_limit;
  }
  const double n = static_cast<double>(total);
  if (!ctx.trace) {
    std::vector<double> per_token_ms;
    for (double ms : trial_ms) {
      per_token_ms.push_back(ms / static_cast<double>(kGenTokens));
    }
    m["setup_s"] = {setup_s, "s"};
    m["ttft_p50_ms"] = {percentile(trial_ms, 50.0), "ms"};
    m["ttft_p99_ms"] = {percentile(trial_ms, 99.0), "ms"};
    m["tpot_p50_ms"] = {percentile(per_token_ms, 50.0), "ms"};
    m["slo_met_frac"] = {static_cast<double>(within_limit) / n, "ratio"};
    m["output_tok_s"] = {n * static_cast<double>(kGenTokens) / run.wall_s,
                         "tok/s"};
    m["trials_per_s"] = {n / run.wall_s, "1/s"};
    std::cout << "# campaign-ft2: " << total << " trials over "
              << inputs.size() << " inputs in " << run.wall_s << " s\n";
    return r;
  }

  const ft2::MetricsSnapshot snap = registry.snapshot();
  const double hits = static_cast<double>(snap.counter_value("campaign.prefix.hit"));
  const double misses =
      static_cast<double>(snap.counter_value("campaign.prefix.miss"));
  const auto* reused = snap.find_histogram("campaign.prefix.reused_positions");
  double full_positions = 0.0;
  for (std::size_t t = 0; t < total; ++t) {
    full_positions += static_cast<double>(
        inputs[t / trials_per_input].prompt.size() + kGenTokens - 1);
  }
  const double checked = static_cast<double>(counter_sum(snap, "protect.checked."));
  const double oob = static_cast<double>(counter_sum(snap, "protect.oob."));

  m["fi.trial_ms.p50"] = {percentile(trial_ms, 50.0), "ms"};
  m["fi.trial_ms.p99"] = {percentile(trial_ms, 99.0), "ms"};
  m["fi.prefix_hit_frac"] = {hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
                             "ratio"};
  m["fi.reused_positions_frac"] = {
      reused != nullptr ? reused->sum / full_positions : 0.0, "ratio"};
  m["fi.prepare_inputs_s"] = {median(prepare_s), "s"};
  m["fi.sdc_frac"] = {static_cast<double>(run.result.sdc) / n, "ratio"};
  m["fi.detected_frac"] = {static_cast<double>(detected) / n, "ratio"};
  m["protect.checked_per_token"] = {
      checked / (n * static_cast<double>(kGenTokens)), "count"};
  m["protect.clip_frac"] = {checked > 0.0 ? oob / checked : 0.0, "ratio"};
  m["obs.trace_overhead_pct"] = {
      (run.range_ms / run.reference_ms - 1.0) * 100.0, "%"};

  // Reconciliation: the campaign span's self time is wall time covered by
  // no range span; the driver-clock range total must equal the range spans.
  const auto spans = summarize_spans(ctx.tracer->events());
  const SpanTotals& phase = spans.at("workload.campaign");
  const double range_span_ms = spans.at("fi.campaign_range").total_ms;
  m["obs.unaccounted_pct"] = {phase.self_ms / phase.total_ms * 100.0, "%"};
  m["obs.step_split_err_pct"] = {
      std::abs(run.range_ms - range_span_ms) / range_span_ms * 100.0, "%"};
  return r;
}

}  // namespace perfbench
