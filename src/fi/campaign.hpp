// Statistical fault-injection campaign runner.
//
// A campaign fixes (model, inputs, protection scheme, fault model) and runs
// N independent single-fault trials per input. Each trial:
//   1. samples a FaultPlan from its own Philox stream (reproducible),
//   2. runs a fixed-length greedy generation with the injector hook followed
//      by the protection hook,
//   3. classifies the outcome against the fault-free reference output:
//        Masked-identical | Masked-semantic | SDC  (paper §2.3).
#pragma once

#include <functional>
#include <vector>

#include "data/dataset.hpp"
#include "fi/fault_site.hpp"
#include "fi/injector.hpp"
#include "nn/model.hpp"
#include "numeric/stats.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "protect/detection_scheme.hpp"

namespace ft2 {

enum class Outcome { kMaskedIdentical, kMaskedSemantic, kSdc, kNotInjected };

/// One evaluation input: the prompt plus the fault-free reference output.
struct EvalInput {
  Sample sample;
  std::vector<int> prompt;            ///< <bos> + prompt tokens
  std::vector<int> reference_tokens;  ///< fault-free generation (full length)
  bool fault_free_correct = false;    ///< reference contains the answer
};

struct CampaignConfig {
  FaultModel fault_model = FaultModel::kSingleBit;
  ValueType vtype = ValueType::kF16;
  std::size_t trials_per_input = 100;
  std::size_t gen_tokens = 16;   ///< fixed generation length (no EOS stop)
  std::uint64_t seed = 42;
  bool first_token_only = false; ///< pin faults to the prefill (Fig. 11)
  bool chunked_accum = false;    ///< alternate reduction order (Fig. 16)
  /// Faults injected per trial. The paper assumes exactly one transient
  /// fault per inference (§2.3); values > 1 support the single-fault-
  /// assumption sensitivity extension.
  std::size_t faults_per_trial = 1;
  /// Pool that trials fan out over (null = process-wide pool). A pure
  /// throughput knob: trial partitioning is deterministic and each trial
  /// is self-contained, so outcomes and per-trial records are identical
  /// at any pool size.
  ThreadPool* pool = nullptr;
  /// Observability sinks. `obs.metrics` receives campaign.* metrics
  /// (per-outcome and per-site-kind counters, trial wall-time histogram)
  /// and the protect.* metrics of each trial's protection hook.
  /// `obs.tracer` receives campaign.trial spans (one per trial:
  /// trial/input/outcome tags) and a shard run's campaign.shard span. Null
  /// publishes nothing (ObsSinks). Both sinks are observational only:
  /// outcomes and trial records are bit-identical with them on or off.
  ObsSinks obs;
  /// Fault-free prefix reuse: run each input's fault-free generation once,
  /// snapshot it (KV rows, online first-token bounds, RNG/position state),
  /// and fork every decode-phase trial from the snapshot at its first
  /// injection position instead of replaying prefill plus the fault-free
  /// decode prefix from token 0. Trials whose first fault lands in the
  /// prefill fall back to the full run. A fork also ends as soon as it is
  /// bit-identical to the recording again — same K/V rows and tokens,
  /// every injector fired, the scheme's state equal to the recording's
  /// (DetectionScheme::state_matches) — and takes the recording's result
  /// and remaining accounting (campaign.prefix.rejoined). Like `pool`
  /// this is a pure throughput knob: outcomes, per-trial records,
  /// detections and protect.* counters are bit-identical on or off (a
  /// single-fault trial is bit-identical to the fault-free run up to its
  /// injection position, and from a rejoin on, so nothing skipped could
  /// have differed).
  bool prefix_reuse = true;
  /// Record per-trial ClipEvents (layer kind, position, original value) on
  /// each trial's protection hook so TrialRecord::clips carries them. Off
  /// by default: capture allocates per clip, and most campaigns only need
  /// the aggregate counters.
  bool capture_clips = false;
  /// Attach a BoundDriftMonitor behind each trial's protection hook,
  /// publishing protect.headroom.* to the campaign registry. Strictly
  /// observational: outcomes, detections, protect.* and campaign.*
  /// counters are bit-identical with the monitor on or off. Under
  /// prefix_reuse the recording logs its samples and a fork replays those
  /// of its skipped prefix and rejoined tail, so protect.headroom.* is the
  /// same with reuse on or off.
  bool drift_monitor = false;
};

struct CampaignResult {
  std::size_t trials = 0;
  std::size_t masked_identical = 0;
  std::size_t masked_semantic = 0;
  std::size_t sdc = 0;
  std::size_t not_injected = 0;

  double sdc_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(sdc) / static_cast<double>(trials);
  }
  ProportionCI sdc_ci() const { return proportion_ci(sdc, trials); }

  /// Counts one trial with `outcome`.
  void add(Outcome outcome) {
    ++trials;
    switch (outcome) {
      case Outcome::kMaskedIdentical: ++masked_identical; break;
      case Outcome::kMaskedSemantic: ++masked_semantic; break;
      case Outcome::kSdc: ++sdc; break;
      case Outcome::kNotInjected: ++not_injected; break;
    }
  }

  void merge(const CampaignResult& other) {
    trials += other.trials;
    masked_identical += other.masked_identical;
    masked_semantic += other.masked_semantic;
    sdc += other.sdc;
    not_injected += other.not_injected;
  }
};

/// Truncates a generated token sequence at the first <eos>.
std::vector<int> truncate_at_eos(const std::vector<int>& tokens);

/// Classifies a faulty generation against the reference (paper §2.3).
Outcome classify_outcome(const std::vector<int>& generated,
                         const EvalInput& input);

/// GenerateOptions of every campaign generation: `gen_tokens` tokens with
/// no EOS stop (fixed length, as in the paper), FP16 semantics when
/// `vtype` is kF16, the given reduction order and GenerateOptions' own
/// prefill chunk.
GenerateOptions fixed_length_options(std::size_t gen_tokens, ValueType vtype,
                                     bool chunked_accum = false);

/// Runs the fixed-length fault-free generation for each sample and keeps
/// the reference outputs. When `only_correct` is set, samples whose
/// fault-free output does not contain the reference answer are dropped
/// (the paper selects inputs all models answer correctly).
///
/// Reference generations fan out over `pool` (null = process-wide pool),
/// one InferenceSession per contiguous chunk of samples. Results are
/// order-preserving and identical at any pool size — each sample's
/// generation is self-contained and deterministic.
std::vector<EvalInput> prepare_eval_inputs(const TransformerLM& model,
                                           const std::vector<Sample>& samples,
                                           std::size_t gen_tokens,
                                           bool only_correct = true,
                                           ThreadPool* pool = nullptr);

/// Per-trial record for debugging/analysis (CSV/JSON/JSONL via
/// fi/trace.hpp; aggregated offline by fi/report.hpp / `ft2 report`).
struct TrialRecord {
  std::size_t trial = 0;
  std::size_t input_index = 0;
  FaultPlan plan;  ///< the first injected fault of the trial
  Outcome outcome = Outcome::kNotInjected;
  /// Violations flagged by the protection hook during the trial
  /// (out-of-bound + NaN) — the detection signal in detect-only mode.
  std::size_t detections = 0;
  std::string generated_text;
  /// Fault model the plan was sampled from (copied from the config so a
  /// recorded log is self-describing).
  FaultModel fault_model = FaultModel::kSingleBit;
  bool fired = false;  ///< the (first) injector actually flipped a value
  std::size_t nan_detections = 0;  ///< NaN corrections (detections = nan+oob)
  std::size_t oob_detections = 0;  ///< out-of-bound corrections
  /// Earliest sequence position where protection corrected anything
  /// (-1 = no detection). Minus plan.position this is the detection
  /// latency in token positions.
  long long detect_position = -1;
  float injected_original = 0.0f;  ///< value before the bit flip (if fired)
  float injected_value = 0.0f;     ///< value after the bit flip (if fired)
  /// Individual out-of-bound events (only with CampaignConfig::
  /// capture_clips).
  std::vector<ClipEvent> clips;
  /// Display name of the protection scheme the trial ran under
  /// (SchemeRef::display for registry schemes, the spec's name otherwise).
  /// Lets `ft2 report` aggregate a merged multi-scheme log into the
  /// head-to-head comparison table.
  std::string scheme;
  /// Trial wall time in milliseconds (generation + classification),
  /// measured whenever a trial callback or metrics sink is attached; 0
  /// otherwise. Timing is observational: excluded from determinism
  /// comparisons.
  double trial_ms = 0.0;
};

/// Called once per trial, on the calling thread, in increasing trial order
/// at any pool width: trials run in windows of a few pool widths and each
/// window's records are delivered in order after the window finishes. A
/// log written from this callback is therefore always a contiguous,
/// resumable prefix of the trial range.
using TrialCallback = std::function<void(const TrialRecord&)>;

/// Runs the campaign for one protection scheme. `offline_bounds` may be an
/// empty store for schemes that do not need it (kNone / FT2-online).
CampaignResult run_campaign(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            const SchemeSpec& scheme,
                            const BoundStore& offline_bounds,
                            const CampaignConfig& config,
                            const TrialCallback& on_trial = {});

/// Partial campaign: runs only trials in [first_trial, last_trial) of the
/// full trial space (inputs.size() * trials_per_input). Because each trial
/// draws from its own Philox stream, disjoint ranges compose exactly:
/// merging the results of [0,k) and [k,N) equals one run of [0,N). Useful
/// for checkpointing/resuming long campaigns and for distributing them.
CampaignResult run_campaign_range(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  const SchemeSpec& scheme,
                                  const BoundStore& offline_bounds,
                                  const CampaignConfig& config,
                                  std::size_t first_trial,
                                  std::size_t last_trial,
                                  const TrialCallback& on_trial = {});

/// Convenience: scheme resolved from its kind.
CampaignResult run_campaign(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            SchemeKind scheme, const BoundStore& offline_bounds,
                            const CampaignConfig& config,
                            const TrialCallback& on_trial = {});

/// Registry path: every trial instantiates `scheme` through its registered
/// factory (so any DetectionScheme — checksum, adaptive, custom — runs the
/// same campaign machinery). `offline_bounds` may be empty when
/// `scheme.needs_offline_bounds()` is false. TrialRecord::scheme carries
/// `scheme.display()`.
CampaignResult run_campaign(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            const SchemeRef& scheme,
                            const BoundStore& offline_bounds,
                            const CampaignConfig& config,
                            const TrialCallback& on_trial = {});

CampaignResult run_campaign_range(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  const SchemeRef& scheme,
                                  const BoundStore& offline_bounds,
                                  const CampaignConfig& config,
                                  std::size_t first_trial,
                                  std::size_t last_trial,
                                  const TrialCallback& on_trial = {});

/// Fault-free "campaign": runs every input once with the scheme applied and
/// no fault, reporting how many outputs remain correct (Fig. 3's
/// false-positive measurement).
double fault_free_correct_fraction(const TransformerLM& model,
                                   const std::vector<EvalInput>& inputs,
                                   const SchemeSpec& scheme,
                                   const BoundStore& offline_bounds,
                                   std::size_t gen_tokens);

}  // namespace ft2
