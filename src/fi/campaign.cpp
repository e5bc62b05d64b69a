#include "fi/campaign.hpp"

#include <array>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "common/thread_pool.hpp"
#include "data/matcher.hpp"
#include "fi/trace.hpp"
#include "protect/drift.hpp"
#include "serve/serve_engine.hpp"

namespace ft2 {

std::vector<int> truncate_at_eos(const std::vector<int>& tokens) {
  std::vector<int> out;
  for (int t : tokens) {
    if (t == Vocab::kEos) break;
    out.push_back(t);
  }
  return out;
}

Outcome classify_outcome(const std::vector<int>& generated,
                         const EvalInput& input) {
  const auto gen = truncate_at_eos(generated);
  const auto ref = truncate_at_eos(input.reference_tokens);
  if (gen == ref) return Outcome::kMaskedIdentical;
  const std::string text = Vocab::shared().decode(gen);
  if (contains_reference(text, input.sample.reference)) {
    return Outcome::kMaskedSemantic;
  }
  return Outcome::kSdc;
}

GenerateOptions fixed_length_options(std::size_t gen_tokens, ValueType vtype,
                                     bool chunked_accum) {
  GenerateOptions options;
  options.max_new_tokens = gen_tokens;
  options.eos_token = -1;  // fixed-length generation, as in the paper
  options.fp16 = vtype == ValueType::kF16;
  options.chunked_accum = chunked_accum;
  return options;
}

namespace {

/// Buckets for campaign.prefix.reused_positions: powers of two up to 2048
/// skipped positions per forked trial (prefill + fault-free decode prefix,
/// plus the recorded tail a rejoined fork skips).
std::span<const double> reused_positions_buckets() {
  static const std::vector<double> buckets = exponential_buckets(1.0, 2.0, 12);
  return buckets;
}

/// Per-trial scheme factory: every trial (and every prefix recording)
/// drives a fresh DetectionScheme instance, so scheme-private state never
/// leaks across trials and any registered scheme runs the same machinery.
using SchemeFactory = std::function<std::unique_ptr<DetectionScheme>()>;

CampaignResult run_campaign_range_impl(
    const TransformerLM& model, const std::vector<EvalInput>& inputs,
    const std::string& scheme_display, const SchemeFactory& make_scheme,
    const CampaignConfig& config, std::size_t first_trial,
    std::size_t last_trial, const TrialCallback& on_trial);

}  // namespace

std::vector<EvalInput> prepare_eval_inputs(const TransformerLM& model,
                                           const std::vector<Sample>& samples,
                                           std::size_t gen_tokens,
                                           bool only_correct,
                                           ThreadPool* pool) {
  std::vector<EvalInput> generated(samples.size());
  if (!samples.empty()) {
    ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
    const GenerateOptions options =
        fixed_length_options(gen_tokens, ValueType::kF16);
    // One InferenceSession per contiguous chunk (≈ one per worker), so the
    // cache/workspace allocation amortizes over the chunk instead of being
    // paid per sample. Each slot is written exactly once, preserving input
    // order at any pool size.
    const std::size_t n_chunks =
        std::min(samples.size(), std::max<std::size_t>(1, p.size()));
    const std::size_t per_chunk = (samples.size() + n_chunks - 1) / n_chunks;
    p.parallel_for(0, n_chunks, [&](std::size_t c) {
      InferenceSession session(model);
      const std::size_t begin = c * per_chunk;
      const std::size_t end = std::min(samples.size(), begin + per_chunk);
      for (std::size_t i = begin; i < end; ++i) {
        EvalInput& input = generated[i];
        input.sample = samples[i];
        input.prompt = prompt_with_bos(samples[i]);
        const auto result = session.generate(input.prompt, options);
        input.reference_tokens = result.tokens;
        const std::string text =
            Vocab::shared().decode(truncate_at_eos(result.tokens));
        input.fault_free_correct =
            contains_reference(text, samples[i].reference);
      }
    });
  }
  std::vector<EvalInput> inputs;
  inputs.reserve(generated.size());
  for (auto& input : generated) {
    if (only_correct && !input.fault_free_correct) continue;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

CampaignResult run_campaign(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            const SchemeSpec& scheme,
                            const BoundStore& offline_bounds,
                            const CampaignConfig& config,
                            const TrialCallback& on_trial) {
  return run_campaign_range(model, inputs, scheme, offline_bounds, config, 0,
                            inputs.size() * config.trials_per_input,
                            on_trial);
}

CampaignResult run_campaign_range(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  const SchemeSpec& scheme,
                                  const BoundStore& offline_bounds,
                                  const CampaignConfig& config,
                                  std::size_t first_trial,
                                  std::size_t last_trial,
                                  const TrialCallback& on_trial) {
  return run_campaign_range_impl(
      model, inputs, spec_display_name(scheme),
      [&] {
        return std::make_unique<RangeRestrictScheme>(model.config(), scheme,
                                                     offline_bounds);
      },
      config, first_trial, last_trial, on_trial);
}

CampaignResult run_campaign(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            const SchemeRef& scheme,
                            const BoundStore& offline_bounds,
                            const CampaignConfig& config,
                            const TrialCallback& on_trial) {
  return run_campaign_range(model, inputs, scheme, offline_bounds, config, 0,
                            inputs.size() * config.trials_per_input, on_trial);
}

CampaignResult run_campaign_range(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  const SchemeRef& scheme,
                                  const BoundStore& offline_bounds,
                                  const CampaignConfig& config,
                                  std::size_t first_trial,
                                  std::size_t last_trial,
                                  const TrialCallback& on_trial) {
  return run_campaign_range_impl(
      model, inputs, scheme.display(),
      [&] { return scheme.instantiate(model.config(), offline_bounds); },
      config, first_trial, last_trial, on_trial);
}

namespace {

CampaignResult run_campaign_range_impl(
    const TransformerLM& model, const std::vector<EvalInput>& inputs,
    const std::string& scheme_display, const SchemeFactory& make_scheme,
    const CampaignConfig& config, std::size_t first_trial,
    std::size_t last_trial, const TrialCallback& on_trial) {
  FT2_CHECK(!inputs.empty());
  FT2_CHECK(config.faults_per_trial >= 1);
  const std::size_t total = inputs.size() * config.trials_per_input;
  FT2_CHECK_MSG(first_trial <= last_trial && last_trial <= total,
                "trial range [" << first_trial << ", " << last_trial
                                << ") outside campaign of " << total);
  const FaultSiteSpace site_space(model.config());
  std::vector<Outcome> outcomes(last_trial - first_trial,
                                Outcome::kNotInjected);
  ThreadPool& pool =
      config.pool != nullptr ? *config.pool : ThreadPool::global();
  const GenerateOptions trial_options = fixed_length_options(
      config.gen_tokens, config.vtype, config.chunked_accum);

  // Prefix reuse: one fault-free recording per input in the trial range —
  // the trial-identical generation (protection hook attached, no fault)
  // with its KV rows, online bounds and per-boundary hook state captured —
  // so decode-phase trials fork from it instead of replaying the prefix.
  // The recording hook publishes NO metrics; each forked trial re-publishes
  // the skipped prefix's protect.* increments on restore, keeping registry
  // totals bit-identical to full replay. With first_token_only every fault
  // lands in the prefill and reuse never applies, so skip the recordings.
  struct PrefixRecording {
    SessionSnapshot snap;
    std::vector<ProtectionState> hook_at;  ///< per token boundary
    /// With config.drift_monitor: the recording's drift samples and, per
    /// token boundary, how many of them precede it.
    std::vector<DriftSample> drift;
    std::vector<std::size_t> drift_at;
  };
  std::vector<PrefixRecording> recordings;
  const bool reuse =
      config.prefix_reuse && !config.first_token_only && first_trial < last_trial;
  if (reuse) {
    recordings.resize(inputs.size());
    const std::size_t first_input = first_trial / config.trials_per_input;
    const std::size_t last_input =
        (last_trial - 1) / config.trials_per_input + 1;
    pool.parallel_for(first_input, last_input, [&](std::size_t i) {
      PrefixRecording& rec = recordings[i];
      ProtectionHook protection(model.config(), make_scheme(), ObsSinks{});
      protection.set_clip_capture(true);
      InferenceSession session(model);
      const HookRegistration reg = session.hooks().add(protection);
      // The recording's monitor publishes nothing: forks replay its
      // samples into their own monitors instead.
      std::optional<BoundDriftMonitor> drift;
      HookRegistration drift_reg;
      if (config.drift_monitor) {
        drift.emplace(protection);
        drift->set_sample_capture(true);
        drift_reg = session.hooks().add(*drift);
      }
      rec.hook_at.reserve(config.gen_tokens);
      session.generate_recorded(
          inputs[i].prompt, trial_options, rec.snap, [&](std::size_t) {
            rec.hook_at.push_back(protection.capture_state());
            if (drift.has_value()) rec.drift_at.push_back(drift->samples().size());
          });
      if (drift.has_value()) rec.drift = drift->samples();
    });
  }

  // campaign.* handles are resolved once here (the registry mutex is only
  // taken at registration), so trial threads touch nothing but striped
  // atomics. All handles stay inert without a registry.
  MetricsRegistry* reg = config.obs.metrics;
  struct CampaignMetrics {
    Counter trials;
    std::array<Counter, 4> outcome;  ///< indexed by static_cast<int>(Outcome)
    std::array<Counter, kLayerKindCount> site;
    HistogramMetric trial_ms;
    Counter prefix_hit;   ///< trials forked from the fault-free snapshot
    Counter prefix_miss;  ///< trials that fell back to the full run
    Counter prefix_rejoined;  ///< forks ended back on the recording
    HistogramMetric prefix_reused;  ///< positions skipped per forked trial
  } cm;
  if (reg != nullptr) {
    cm.trials = reg->counter("campaign.trials");
    for (Outcome o : {Outcome::kMaskedIdentical, Outcome::kMaskedSemantic,
                      Outcome::kSdc, Outcome::kNotInjected}) {
      cm.outcome[static_cast<std::size_t>(o)] =
          reg->counter(std::string("campaign.outcome.") + outcome_name(o));
    }
    for (std::size_t k = 0; k < kLayerKindCount; ++k) {
      cm.site[k] = reg->counter(
          std::string("campaign.site.") +
          std::string(layer_kind_name(static_cast<LayerKind>(k))));
    }
    cm.trial_ms = reg->histogram("campaign.trial_ms", latency_ms_buckets());
    if (config.prefix_reuse) {
      cm.prefix_hit = reg->counter("campaign.prefix.hit");
      cm.prefix_miss = reg->counter("campaign.prefix.miss");
      cm.prefix_rejoined = reg->counter("campaign.prefix.rejoined");
      cm.prefix_reused = reg->histogram("campaign.prefix.reused_positions",
                                        reused_positions_buckets());
    }
  }

  // Trials run in windows of a few pool widths; each window's records are
  // delivered in trial order after it joins (see TrialCallback), so at most
  // one window of records is ever buffered. A window splits into one
  // contiguous chunk per worker, and each chunk runs on that worker's own
  // session, so a trial reuses a cache and workspace instead of zero-filling
  // new ones.
  const std::size_t workers = std::max<std::size_t>(pool.size(), 1);
  const std::size_t window = 4 * workers;
  std::vector<std::unique_ptr<InferenceSession>> sessions(workers);
  std::size_t window_lo = first_trial;
  std::vector<TrialRecord> window_records;
  const auto run_trial = [&](std::size_t trial, InferenceSession& session) {
    using TrialClock = std::chrono::steady_clock;
    // Trials are timed for the histogram AND for TrialRecord::trial_ms;
    // the clock reads are nanoseconds against millisecond-scale trials.
    const bool timed = cm.trial_ms.enabled() || static_cast<bool>(on_trial);
    const TrialClock::time_point trial_start =
        timed ? TrialClock::now() : TrialClock::time_point{};
    const std::size_t input_idx = trial / config.trials_per_input;
    const EvalInput& input = inputs[input_idx];
    TraceSpan trial_span = trace_span(config.obs.tracer, "campaign.trial");
    if (trial_span.active()) {
      trial_span.tag("trial", std::to_string(trial))
          .tag("input", std::to_string(input_idx));
    }

    PhiloxStream rng(config.seed, trial);
    std::vector<InjectorHook> injectors;
    injectors.reserve(config.faults_per_trial);
    for (std::size_t f = 0; f < config.faults_per_trial; ++f) {
      injectors.emplace_back(
          site_space.sample(input.prompt.size(), config.gen_tokens,
                            config.fault_model, config.vtype, rng,
                            config.first_token_only));
    }

    ProtectionHook protection(model.config(), make_scheme(), config.obs);
    protection.set_clip_capture(config.capture_clips);
    // The drift monitor registers AFTER protection so it observes
    // post-correction values; it never mutates them, so everything the
    // trial reports stays bit-identical with it on or off.
    std::optional<BoundDriftMonitor> drift;
    if (config.drift_monitor) {
      drift.emplace(protection, DriftMonitorOptions{0.10, config.obs});
    }
    std::vector<HookRegistration> regs;
    regs.reserve(injectors.size() + 2);
    for (auto& injector : injectors) regs.push_back(session.hooks().add(injector));
    regs.push_back(session.hooks().add(protection));
    if (drift.has_value()) regs.push_back(session.hooks().add(*drift));

    // Prefix reuse: a single-fault trial is bit-identical to the fault-free
    // recording up to its first injection position, so decode-phase trials
    // fork from the snapshot there. Prefill-phase faults (any plan inside
    // the first-token phase) replay the full run. Injection positions past
    // the last executed forward clamp to the final boundary: zero forwards
    // run, the injector never fires, and the restored hook state carries
    // the full run's detections — exactly what full replay produces.
    //
    // A fork also ends early once it is back on the recording: its K/V
    // rows and tokens match (resume_from checks those), every injector has
    // fired, and the scheme's state matches the recording's at that
    // boundary. Everything after is then the recording's, so the trial
    // takes its result and ProtectionHook::rejoin adds the remainder's
    // accounting. A fault masked before it reaches the KV cache or the
    // next token (most last-block faults) ends here. A drift monitor only
    // observes, so it does not hold a fork back: it replays the
    // recording's samples of the skipped prefix on resume and of the
    // skipped tail on rejoin, so its headroom matches a full replay.
    GenerateResult result;
    bool forked = false;
    if (reuse) {
      const PrefixRecording& rec = recordings[input_idx];
      std::size_t first_pos = std::numeric_limits<std::size_t>::max();
      for (const auto& injector : injectors) {
        first_pos = std::min(first_pos, injector.plan().position);
      }
      if (rec.snap.valid() && first_pos >= rec.snap.prompt_len) {
        const std::size_t fork_pos =
            std::min(first_pos, rec.snap.last_boundary());
        const std::size_t fork_b = fork_pos - rec.snap.prompt_len;
        std::optional<std::size_t> rejoined_at;
        result = session.resume_from(
            rec.snap, fork_pos,
            [&] {
              protection.restore_state(rec.hook_at[fork_b]);
              if (drift.has_value()) {
                drift->replay(std::span<const DriftSample>(rec.drift).first(
                    rec.drift_at[fork_b]));
              }
            },
            [&](std::size_t b) {
              for (const auto& injector : injectors) {
                if (!injector.fired()) return false;
              }
              if (!protection.scheme().state_matches(
                      rec.hook_at[b].scheme.get())) {
                return false;
              }
              rejoined_at = b;
              // Still inside the generation, so the monitor publishes the
              // tail with its own samples when the generation ends.
              if (drift.has_value()) {
                drift->replay(std::span<const DriftSample>(rec.drift).subspan(
                    rec.drift_at[b]));
              }
              return true;
            });
        std::size_t reused = fork_pos;
        if (rejoined_at.has_value()) {
          const std::size_t at = rec.snap.prompt_len + *rejoined_at;
          protection.rejoin(std::span<const ProtectionState>(rec.hook_at)
                                .subspan(*rejoined_at),
                            at);
          reused += rec.snap.result.positions_run - at;
          cm.prefix_rejoined.inc();
        }
        forked = true;
        cm.prefix_hit.inc();
        cm.prefix_reused.observe(static_cast<double>(reused));
      }
    }
    if (!forked) {
      result = session.generate(input.prompt, trial_options);
      if (config.prefix_reuse) cm.prefix_miss.inc();
    }
    bool fired = false;
    for (const auto& injector : injectors) fired |= injector.fired();
    const Outcome outcome = fired ? classify_outcome(result.tokens, input)
                                  : Outcome::kNotInjected;
    outcomes[trial - first_trial] = outcome;
    if (trial_span.active()) {
      trial_span.tag("outcome", outcome_name(outcome))
          .tag("fork", forked ? "hit" : "miss");
    }
    cm.trials.inc();
    cm.outcome[static_cast<std::size_t>(outcome)].inc();
    for (const auto& injector : injectors) {
      cm.site[static_cast<std::size_t>(injector.plan().site.kind)].inc();
    }
    double elapsed_ms = 0.0;
    if (timed) {
      elapsed_ms = std::chrono::duration<double, std::milli>(TrialClock::now() -
                                                             trial_start)
                       .count();
      cm.trial_ms.observe(elapsed_ms);
    }
    if (on_trial) {
      TrialRecord record;
      record.trial = trial;
      record.input_index = input_idx;
      record.plan = injectors.front().plan();
      record.outcome = outcome;
      record.detections = protection.stats().oob_corrected +
                          protection.stats().nan_corrected;
      record.generated_text =
          Vocab::shared().decode(truncate_at_eos(result.tokens));
      record.fault_model = config.fault_model;
      record.fired = fired;
      record.nan_detections = protection.stats().nan_corrected;
      record.oob_detections = protection.stats().oob_corrected;
      record.detect_position = protection.first_detect_position();
      record.injected_original = injectors.front().original_value();
      record.injected_value = injectors.front().injected_value();
      if (config.capture_clips) record.clips = protection.clip_events();
      record.scheme = scheme_display;
      record.trial_ms = elapsed_ms;
      window_records[trial - window_lo] = std::move(record);
    }
  };
  for (; window_lo < last_trial; window_lo += window) {
    const std::size_t window_hi = std::min(last_trial, window_lo + window);
    if (on_trial) window_records.assign(window_hi - window_lo, TrialRecord{});
    const std::size_t n = window_hi - window_lo;
    const std::size_t chunks = std::min(workers, n);
    const std::size_t per_chunk = (n + chunks - 1) / chunks;
    pool.parallel_for(0, chunks, [&](std::size_t c) {
      if (sessions[c] == nullptr) {
        sessions[c] = std::make_unique<InferenceSession>(model);
      }
      const std::size_t lo = window_lo + c * per_chunk;
      const std::size_t hi = std::min(window_hi, lo + per_chunk);
      for (std::size_t trial = lo; trial < hi; ++trial) {
        run_trial(trial, *sessions[c]);
      }
    });
    if (on_trial) {
      for (const TrialRecord& record : window_records) on_trial(record);
    }
  }

  CampaignResult result;
  for (Outcome o : outcomes) result.add(o);
  return result;
}

}  // namespace

CampaignResult run_campaign(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            SchemeKind scheme, const BoundStore& offline_bounds,
                            const CampaignConfig& config,
                            const TrialCallback& on_trial) {
  return run_campaign(model, inputs, scheme_spec(scheme, model.config()),
                      offline_bounds, config, on_trial);
}

double fault_free_correct_fraction(const TransformerLM& model,
                                   const std::vector<EvalInput>& inputs,
                                   const SchemeSpec& scheme,
                                   const BoundStore& offline_bounds,
                                   std::size_t gen_tokens) {
  FT2_CHECK(!inputs.empty());
  // All inputs run through one continuous-batching engine: decode steps for
  // the whole batch share each weight matrix load. Bit-exact with the serial
  // per-session loop (each request keeps its own protection hook and cache),
  // so the reported fraction is identical — only faster.
  ServeEngine engine(model);
  const GenerateOptions options =
      fixed_length_options(gen_tokens, ValueType::kF16);
  std::vector<ProtectionHook> protections;
  protections.reserve(inputs.size());  // chains hold raw hook pointers
  std::vector<HookRegistration> regs;
  regs.reserve(inputs.size());
  std::vector<RequestId> ids;
  ids.reserve(inputs.size());
  for (const auto& input : inputs) {
    protections.emplace_back(model.config(), scheme, offline_bounds);
    const RequestId id = engine.submit(input.prompt, options);
    regs.push_back(engine.hooks(id).add(protections.back()));
    ids.push_back(id);
  }
  engine.run();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string text = Vocab::shared().decode(
        truncate_at_eos(engine.result(ids[i]).tokens));
    if (contains_reference(text, inputs[i].sample.reference)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

}  // namespace ft2
