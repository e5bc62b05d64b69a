// Offline bound profiling and activation-distribution profiling.
//
// Offline profiling reproduces what the baselines require: fault-free
// forward passes over a profiling dataset, recording per-site min/max.
// The distribution profiler backs Figs. 8 and 12 (value histograms and the
// NaN-vulnerable fraction per layer).
#pragma once

#include <map>

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "numeric/stats.hpp"
#include "protect/bounds.hpp"

namespace ft2 {

/// Hook that records min/max of every layer output it sees.
class BoundRecorderHook : public OutputHook {
 public:
  explicit BoundRecorderHook(const ModelConfig& config) : bounds_(config) {}

  void on_output(const HookContext& ctx, std::span<float> values) override {
    bounds_.at(ctx.site).observe_span(values);
  }

  const BoundStore& bounds() const { return bounds_; }
  BoundStore take_bounds() { return std::move(bounds_); }

 private:
  BoundStore bounds_;
};

/// Configuration for offline bound profiling (the single entry point that
/// replaced the profile_offline_bounds / _with_typical / _quantile trio).
struct OfflineProfileOptions {
  std::size_t n_inputs = 16;        ///< profiling samples to run
  std::uint64_t seed = 1;           ///< dataset generator seed
  std::size_t max_new_tokens = 24;  ///< decode length per sample
  /// Fill each site's Bounds::typical with the empirical median (the
  /// profile the Dr.DNA-style clip-to-typical policy needs).
  bool with_typical = false;
  /// 0 = min/max bounds; q in (0, 0.5) = [q, 1-q] empirical quantile
  /// bounds (tighter bounds catch smaller faulty deviations but clip the
  /// benign tail — the precision/recall knob; typical is always the
  /// median when quantile profiling is on).
  double quantile = 0.0;
  float stats_range = 16.0f;   ///< histogram range for typical/quantile
  std::size_t stats_bins = 64; ///< histogram bins for typical/quantile
};

/// Runs fault-free generations of `gen`'s samples through the model and
/// returns per-site bounds — the classical offline profiling step of
/// Ranger/MaxiMals/Global Clipper (paper §3.2). See OfflineProfileOptions
/// for the typical/quantile variants.
BoundStore profile_offline_bounds(const TransformerLM& model,
                                  const DatasetGenerator& gen,
                                  const OfflineProfileOptions& options = {});

/// Per-site activation statistics: histogram + NaN-vulnerable fraction.
class ActivationStatsHook : public OutputHook {
 public:
  /// Histograms span [-range, range] with `bins` bins.
  ActivationStatsHook(float range = 8.0f, std::size_t bins = 64)
      : range_(range), bins_(bins) {}

  void on_output(const HookContext& ctx, std::span<float> values) override;

  struct SiteStats {
    Histogram histogram;
    RunningStats stats;
    std::size_t nan_vulnerable = 0;  ///< |v| in (1,2): FP16 exponent 01111
    std::size_t total = 0;

    explicit SiteStats(float range, std::size_t bins)
        : histogram(-range, range, bins) {}

    double nan_vulnerable_fraction() const {
      return total == 0 ? 0.0
                        : static_cast<double>(nan_vulnerable) /
                              static_cast<double>(total);
    }
  };

  /// Aggregated stats for a layer kind across all blocks (empty optional ->
  /// kind never observed). Key: (block, kind) pairs are kept separately too.
  const SiteStats* find(const LayerSite& site) const;
  SiteStats aggregate(LayerKind kind) const;
  std::vector<LayerSite> observed_sites() const;

 private:
  float range_;
  std::size_t bins_;
  std::map<std::pair<int, int>, SiteStats> sites_;
};

}  // namespace ft2
