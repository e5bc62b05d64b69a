// Bound-drift monitor: the online analogue of the paper's Fig. 9.
//
// FT2's safety argument is that 2x-scaled first-token bounds stay wide
// enough for every later token. This hook measures exactly that, live: for
// each covered layer-kind dispatch after the first-token phase it computes
// how much of the enforced (scaled) bound interval the span's values
// actually use, and exports the remaining headroom as a
// `protect.headroom.<KIND>` histogram plus a near-clip gauge. A headroom of
// 1 means the layer output never approached the bound; 0 means some value
// sat exactly on it (or was clipped onto it).
//
// Strictly observational: the monitor never writes to the value span and
// the ProtectionHook never reads from it, so generated tokens, protection
// stats and campaign outcomes are bit-identical with the monitor attached
// or not (pinned by tests/protect/drift_test.cpp). Register it AFTER the
// ProtectionHook so it observes post-correction values.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "nn/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "protect/bounds.hpp"
#include "protect/scheme.hpp"

namespace ft2 {

struct DriftMonitorOptions {
  /// A dispatch whose headroom is <= this fraction counts as "near clip"
  /// (the numerator of protect.headroom.near_clip_frac).
  double near_clip_threshold = 0.10;
  /// Observability sinks; `obs.metrics` receives the protect.headroom.*
  /// exports. Null publishes nothing, as for every hook (obs/sinks.hpp):
  /// the monitor still accumulates its own counts, observed bounds and
  /// samples.
  ObsSinks obs;
};

/// Histogram buckets for bound-usage headroom in [0, 1].
std::vector<double> headroom_buckets();

/// One monitored dispatch, as the monitor accumulated it: the span's
/// extremes and its headroom. Replaying a sample accumulates exactly what
/// observing the dispatch did.
struct DriftSample {
  LayerKind kind = LayerKind::kQProj;
  float lo = 0.0f;  ///< span minimum (+inf if the span held only NaN)
  float hi = 0.0f;  ///< span maximum (-inf if the span held only NaN)
  double headroom = 1.0;
};

class BoundDriftMonitor : public OutputHook {
 public:
  /// `protection` must outlive the monitor; its scheme decides which layer
  /// kinds are covered and which (scaled) bounds the headroom is measured
  /// against. The monitor reads the protection hook's bounds at dispatch
  /// time, so online (first-token) bounds work naturally.
  explicit BoundDriftMonitor(const ProtectionHook& protection,
                             DriftMonitorOptions options = {});

  void on_generation_begin() override;
  void on_output(const HookContext& ctx, std::span<float> values) override;
  /// Publishes the generation's locally accumulated headroom samples to the
  /// registry. The hot path only bumps plain per-monitor arrays; registry
  /// atomics happen once per generation here (keeps the decode overhead
  /// within the 1% budget — numbers in docs/OBSERVABILITY.md).
  void on_generation_end() override;

  /// Running observed min/max per layer kind across every monitored
  /// dispatch (post-first-token, post-correction).
  const Bounds& observed(LayerKind kind) const {
    return observed_[static_cast<std::size_t>(kind)];
  }

  /// Monitored dispatches since construction / the counts feeding the
  /// near-clip gauge.
  std::size_t total_dispatches() const { return total_dispatches_; }
  std::size_t near_clip_dispatches() const { return near_clip_dispatches_; }

  /// Fraction of monitored dispatches that came within the near-clip
  /// threshold of a bound (0 when nothing was monitored yet).
  double near_clip_fraction() const;

  /// Logs every sample of the current generation (cleared when one
  /// begins), for a prefix-reuse recording to hand to its forks. Off by
  /// default: the common path stays allocation-free.
  void set_sample_capture(bool on) { capture_samples_ = on; }
  /// The samples logged this generation while capture is on.
  const std::vector<DriftSample>& samples() const { return samples_; }

  /// Accumulates `samples` in order as if this monitor had observed their
  /// dispatches itself: observed bounds, local histogram counts and sum,
  /// dispatch and near-clip counts. A prefix-reuse fork replays the
  /// recording's prefix on resume (after on_generation_begin) and the
  /// recording's remainder when it rejoins (before on_generation_end), so
  /// its headroom samples match a full replay's.
  void replay(std::span<const DriftSample> samples);

 private:
  void add(const DriftSample& sample);

  const ProtectionHook& protection_;
  DriftMonitorOptions options_;
  std::array<bool, kLayerKindCount> covered_mask_{};
  std::array<Bounds, kLayerKindCount> observed_{};
  std::array<HistogramMetric, kLayerKindCount> headroom_hist_{};
  Gauge near_clip_gauge_;
  std::size_t total_dispatches_ = 0;
  std::size_t near_clip_dispatches_ = 0;
  // Per-generation local accumulators, flushed by on_generation_end():
  // one pre-bucketed count vector + sample sum per covered kind (empty for
  // uncovered kinds or when the registry is disabled).
  std::vector<double> headroom_uppers_;
  std::array<std::vector<std::uint64_t>, kLayerKindCount> local_counts_{};
  std::array<double, kLayerKindCount> local_sums_{};
  bool capture_samples_ = false;
  std::vector<DriftSample> samples_;
};

}  // namespace ft2
