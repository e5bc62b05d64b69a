// Protection driver and scheme descriptors.
//
// The protection layer is split in two (see protect/detection_scheme.hpp
// for the pluggable half):
//  * DetectionScheme — the detection/correction algorithm itself, behind a
//    small virtual interface (range restriction, checksums, ...). Schemes
//    are registered by name and resolved at runtime.
//  * ProtectionHook (this header) — the thin driver that owns everything a
//    scheme should not have to reimplement: per-layer-kind tallies,
//    protect.* metric publication, the clip-event log, first-detection
//    accounting, generation lifecycle, and capture/restore of the whole
//    bundle for prefix-reuse campaigns.
//
// Coverage of the built-in range-restriction schemes follows the paper's
// Table 1:
//   Ranger         — activation-layer outputs only, clip-to-zero, no NaN fix.
//   MaxiMals       — attention-block and MLP outputs (OUT_PROJ, FC2,
//                    DOWN_PROJ), clip-to-zero, NaN fix, mild bound scaling.
//   Global Clipper — attention linear outputs V_PROJ and OUT_PROJ,
//                    clip-to-zero, NaN fix.
//   FT2            — all critical layers from the architectural heuristic,
//                    clip-to-BOUND, NaN fix, online first-token bounds x2.
//   FT2-Offline    — FT2 coverage/policy with offline-profiled bounds
//                    (the take-away #7 ablation).
// All baselines require offline-profiled bounds; only FT2 is online-only.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "protect/bounds.hpp"
#include "protect/range_restriction.hpp"

namespace ft2 {

class DetectionScheme;
class SchemeState;

/// One out-of-bound correction, attributed to the layer kind and the
/// sequence position of the clipped value (forensics: campaign flight
/// records carry these so `ft2 report` can localize detections without
/// rerunning the trial).
struct ClipEvent {
  LayerKind kind = LayerKind::kQProj;
  std::size_t position = 0;  ///< sequence position of the clipped value
  float original = 0.0f;     ///< pre-correction value
};

/// Point-in-time snapshot of a ProtectionHook's per-generation state, taken
/// at a token boundary of a fault-free run and restored into a fresh hook
/// when a trial forks from that boundary (prefix-reuse campaigns). Carries
/// the driver-side accumulation (per-kind correction tallies, out-of-bound
/// events, first detection) plus an opaque snapshot of the scheme's private
/// state (online first-token bounds, checksum calibration, ...).
struct ProtectionState {
  std::array<ProtectionStats, kLayerKindCount> kind_stats{};
  /// Out-of-bound events observed so far, in dispatch order (recorded only
  /// while clip capture is enabled on the source hook).
  std::vector<ClipEvent> clips;
  /// Earliest sequence position where any correction (NaN or out-of-bound)
  /// fired, -1 when none has.
  long long first_detect_pos = -1;
  /// Scheme-private state at the boundary (DetectionScheme::capture_state;
  /// null when the scheme carries none). Immutable and shared: restoring
  /// never mutates the snapshot.
  std::shared_ptr<const SchemeState> scheme;
};

/// The built-in range-restriction scheme family (the paper's Table 1).
/// This enum only enumerates that family; the full scheme zoo — including
/// checksum and adaptive detectors — lives in the string-keyed registry
/// (protect/detection_scheme.hpp), which is what CLI and campaign paths
/// resolve names against.
enum class SchemeKind {
  kNone = 0,
  kRanger,
  kMaxiMals,
  kGlobalClipper,
  kFt2,
  kFt2Offline,
};

constexpr const char* scheme_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNone: return "none";
    case SchemeKind::kRanger: return "ranger";
    case SchemeKind::kMaxiMals: return "maximals";
    case SchemeKind::kGlobalClipper: return "global_clipper";
    case SchemeKind::kFt2: return "ft2";
    case SchemeKind::kFt2Offline: return "ft2_offline";
  }
  return "unknown";
}

/// Resolved protection parameters for one scheme on one architecture.
struct SchemeSpec {
  SchemeKind kind = SchemeKind::kNone;
  /// Registry/display name ("ft2", "abft-linear", ...). scheme_spec() fills
  /// it from the kind; schemes built by the registry carry their registered
  /// name. Threaded into TrialRecord::scheme by campaigns.
  std::string name;
  std::vector<LayerKind> covered;  ///< protected layer kinds
  ClipPolicy policy = ClipPolicy::kToZero;
  bool correct_nan = false;
  float bound_scale = 1.0f;
  bool online = false;             ///< first-token bounds (FT2) vs offline
  bool needs_offline_bounds = false;
  bool detect_only = false;        ///< count violations without correcting

  bool covers(LayerKind k) const;
};

/// Coverage/policy of `kind` for the given architecture.
SchemeSpec scheme_spec(SchemeKind kind, const ModelConfig& config);

/// Display name of a spec for records and tables: the registered name when
/// set, otherwise the legacy enum name.
std::string spec_display_name(const SchemeSpec& spec);

/// The protection hook: drives a DetectionScheme during generation.
///
/// The driver dispatches every covered layer output to the scheme's
/// detect_and_correct, accumulates the per-kind tallies it reports,
/// publishes protect.* metrics, records clip events and the earliest
/// detection position, and snapshots/restores the whole bundle (driver
/// accounting + scheme-private state) for prefix-reuse campaign forks.
class ProtectionHook : public OutputHook {
 public:
  /// Drives `scheme` (never null). When `obs.metrics` is non-null the hook
  /// publishes per-layer-kind event counters (protect.checked/nan/
  /// oob.<KIND>), clip-magnitude histograms (protect.clip_magnitude.<KIND>)
  /// and any scheme-private metrics to it; metrics never change what the
  /// hook corrects — values and stats are bit-identical with metrics on or
  /// off. (`obs.tracer` is carried for uniformity; the hook emits no spans.)
  ProtectionHook(const ModelConfig& config,
                 std::unique_ptr<DetectionScheme> scheme, ObsSinks obs = {});

  /// Convenience: a range-restriction scheme resolved from its spec.
  /// `offline_bounds` may be empty for online schemes / kNone.
  ProtectionHook(const ModelConfig& config, SchemeSpec spec,
                 BoundStore offline_bounds = BoundStore{},
                 MetricsRegistry* metrics = nullptr);

  ~ProtectionHook() override;
  ProtectionHook(ProtectionHook&&) = default;
  ProtectionHook& operator=(ProtectionHook&&) = default;

  void on_generation_begin() override;
  void on_output(const HookContext& ctx, std::span<float> values) override;

  /// Total corrections across all layer kinds. The tallies are kept per
  /// kind internally; this façade sums them, preserving the exact values
  /// the single-struct accounting produced.
  ProtectionStats stats() const;

  /// Corrections attributed to one layer kind.
  const ProtectionStats& stats(LayerKind kind) const {
    return kind_stats_[static_cast<std::size_t>(kind)];
  }

  /// The driven scheme's resolved spec (coverage, policy, scaling).
  const SchemeSpec& spec() const;

  /// The scheme under the driver (for scheme-specific inspection).
  DetectionScheme& scheme() { return *scheme_; }
  const DetectionScheme& scheme() const { return *scheme_; }

  /// Online bounds captured during the current/most recent generation
  /// (valid after the first-token phase of an FT2 run; an empty store for
  /// schemes without online bounds).
  const BoundStore& online_bounds() const;

  /// Offline (profiled) bounds the scheme protects with; invalid entries
  /// for online schemes constructed without profiles.
  const BoundStore& offline_bounds() const;

  /// Out-of-bound events recorded this generation (only while clip capture
  /// is on — see set_clip_capture).
  const std::vector<ClipEvent>& clip_events() const { return clip_log_; }

  /// Earliest sequence position where any correction fired this generation
  /// (-1 = none). During chunked prefill the granularity is the dispatched
  /// span's first position; decode dispatches are single-position, so the
  /// value is exact wherever detection latency matters.
  long long first_detect_position() const { return first_detect_pos_; }

  /// Records every out-of-bound original value so capture_state() can carry
  /// it. Off by default (the common path stays allocation-free); turn on
  /// for the fault-free recording run of a prefix-reuse campaign.
  void set_clip_capture(bool on) { capture_clips_ = on; }

  /// Captures the per-generation state at the current token boundary.
  ProtectionState capture_state() const;

  /// Restores captured state into this hook as if it had processed the
  /// recorded prefix itself: scheme-private state and per-kind tallies are
  /// reinstated, the prefix's protect.* counter increments are published to
  /// the metrics registry, and recorded clips replay into the
  /// clip-magnitude histograms. Call after on_generation_begin (which
  /// resets scheme state), e.g. from InferenceSession::resume_from's
  /// on_resume hook.
  void restore_state(const ProtectionState& state);

  /// Ends a prefix-reuse fork that rejoined the fault-free recording
  /// (InferenceSession::resume_from's `rejoin`): adds the accounting the
  /// hook would have done over the recording's remaining forwards, as if
  /// it had run them. `remainder` holds the recording's states from the
  /// rejoin boundary (front) to the end of the run (back); the forward
  /// that ends remainder[i] ran at position `position + i - 1`. Adds the
  /// per-kind tally growth from front to back and publishes it to the
  /// protect.* counters, appends the clip events logged after front (to
  /// the clip log while capture is on, to the clip-magnitude histograms
  /// always), and, when this hook has not detected yet, takes the first
  /// remainder forward whose NaN/out-of-bound tallies grew as its first
  /// detection. Only valid when the scheme's state matches front's
  /// (DetectionScheme::state_matches), so every remaining dispatch would
  /// have behaved as recorded.
  void rejoin(std::span<const ProtectionState> remainder,
              std::size_t position);

  /// Memory footprint of the per-site state this scheme stores (paper
  /// §5.2.2 — two bound floats per protected layer instance for the
  /// range-restriction family; checksum schemes report their calibration
  /// storage on top).
  std::size_t bound_memory_bytes() const;

  /// Number of protected layer instances (covered kinds x blocks).
  std::size_t protected_layer_count() const;

 private:
  /// protect.* handles for one covered layer kind (inert without metrics).
  struct KindMetrics {
    Counter checked;
    Counter nan;
    Counter oob;
    HistogramMetric clip_magnitude;
  };

  /// Adds tallies of forwards the hook skipped (a restored prefix, a
  /// rejoined remainder) to one kind, and publishes them.
  void add_skipped(std::size_t kind, const ProtectionStats& delta);

  ModelConfig config_;
  std::unique_ptr<DetectionScheme> scheme_;
  std::array<bool, kLayerKindCount> covered_mask_{};
  std::array<ProtectionStats, kLayerKindCount> kind_stats_{};
  std::array<KindMetrics, kLayerKindCount> kind_metrics_{};
  bool capture_clips_ = false;
  std::vector<ClipEvent> clip_log_;
  long long first_detect_pos_ = -1;
};

}  // namespace ft2
