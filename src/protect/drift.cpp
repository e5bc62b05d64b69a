#include "protect/drift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace ft2 {

std::vector<double> headroom_buckets() {
  // Linear 0.05 steps across [0, 1]: headroom is a fraction, and the
  // interesting shape (mass piling up near 0 as bounds tighten) is linear,
  // not exponential.
  std::vector<double> uppers;
  for (int i = 1; i <= 20; ++i) uppers.push_back(0.05 * i);
  return uppers;
}

BoundDriftMonitor::BoundDriftMonitor(const ProtectionHook& protection,
                                     DriftMonitorOptions options)
    : protection_(protection),
      options_(options),
      headroom_uppers_(headroom_buckets()) {
  MetricsRegistry* reg = options_.obs.metrics;
  for (LayerKind k : protection_.spec().covered) {
    const std::size_t kind = static_cast<std::size_t>(k);
    covered_mask_[kind] = true;
    if (reg != nullptr) {
      headroom_hist_[kind] = reg->histogram(
          "protect.headroom." + std::string(layer_kind_name(k)),
          headroom_uppers_);
      if (headroom_hist_[kind].enabled()) {
        local_counts_[kind].assign(headroom_uppers_.size() + 1, 0);
      }
    }
  }
  if (reg != nullptr) {
    near_clip_gauge_ = reg->gauge("protect.headroom.near_clip_frac");
  }
}

void BoundDriftMonitor::on_generation_begin() {
  for (Bounds& b : observed_) b = Bounds{};
  samples_.clear();
}

void BoundDriftMonitor::on_generation_end() {
  for (std::size_t kind = 0; kind < kLayerKindCount; ++kind) {
    std::vector<std::uint64_t>& local = local_counts_[kind];
    if (local.empty()) continue;
    headroom_hist_[kind].observe_prebucketed(local, local_sums_[kind]);
    std::fill(local.begin(), local.end(), 0);
    local_sums_[kind] = 0.0;
  }
  near_clip_gauge_.set(near_clip_fraction());
}

double BoundDriftMonitor::near_clip_fraction() const {
  return total_dispatches_ == 0
             ? 0.0
             : static_cast<double>(near_clip_dispatches_) /
                   static_cast<double>(total_dispatches_);
}

void BoundDriftMonitor::on_output(const HookContext& ctx,
                                  std::span<float> values) {
  // First-token dispatches are still *recording* bounds — there is nothing
  // to measure headroom against yet (and for online schemes the bounds
  // would be half-formed).
  if (ctx.first_token_phase) return;
  const std::size_t kind = static_cast<std::size_t>(ctx.site.kind);
  if (!covered_mask_[kind]) return;

  const SchemeSpec& spec = protection_.spec();
  const BoundStore& store =
      spec.online ? protection_.online_bounds() : protection_.offline_bounds();
  const Bounds enforced = store.at(ctx.site).scaled(spec.bound_scale);
  if (!enforced.valid()) return;

  // Usage: the largest fraction of the enforced interval any value reaches
  // (positive values against hi, negative against lo). Post-correction a
  // clipped value sits exactly on the bound -> usage 1, headroom 0. The
  // scan keeps only the span min/max — v/hi is monotonic in v, so the
  // extremes decide usage and the divisions hoist out of the loop (this is
  // the decode hot path; see the overhead numbers in docs/OBSERVABILITY.md).
  float mn = std::numeric_limits<float>::infinity();
  float mx = -std::numeric_limits<float>::infinity();
  for (float v : values) {
    mn = std::min(mn, v);  // NaN compares false: contributes to neither
    mx = std::max(mx, v);
  }
  double usage = 0.0;
  if (mx > 0.0f && enforced.hi > 0.0f) {
    usage = std::max(usage, static_cast<double>(mx) /
                                static_cast<double>(enforced.hi));
  }
  if (mn < 0.0f && enforced.lo < 0.0f) {
    usage = std::max(usage, static_cast<double>(mn) /
                                static_cast<double>(enforced.lo));
  }
  add(DriftSample{ctx.site.kind, mn, mx, std::max(0.0, 1.0 - usage)});
}

void BoundDriftMonitor::replay(std::span<const DriftSample> samples) {
  for (const DriftSample& sample : samples) add(sample);
}

void BoundDriftMonitor::add(const DriftSample& sample) {
  const std::size_t kind = static_cast<std::size_t>(sample.kind);
  Bounds& seen = observed_[kind];
  seen.lo = std::min(seen.lo, sample.lo);
  seen.hi = std::max(seen.hi, sample.hi);
  const double headroom = sample.headroom;
  std::vector<std::uint64_t>& local = local_counts_[kind];
  if (!local.empty()) {
    // Same "le" bucketing HistogramCell::add applies; headroom <= 1 means
    // the overflow slot stays empty, but keep it for shape parity.
    const std::size_t bucket = static_cast<std::size_t>(
        std::lower_bound(headroom_uppers_.begin(), headroom_uppers_.end(),
                         headroom) -
        headroom_uppers_.begin());
    ++local[bucket];
    local_sums_[kind] += headroom;
  }
  ++total_dispatches_;
  if (headroom <= options_.near_clip_threshold) ++near_clip_dispatches_;
  if (capture_samples_) samples_.push_back(sample);
}

}  // namespace ft2
