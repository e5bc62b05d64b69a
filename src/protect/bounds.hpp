// Per-layer neuron-value bounds used by range-restriction protection.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "nn/config.hpp"
#include "nn/layer_kind.hpp"

namespace ft2 {

/// [lo, hi] observed range of a layer's output neurons. NaN observations
/// are ignored (a NaN carries no range information).
struct Bounds {
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  /// A "typical" in-distribution value (median), used by the Dr.DNA-style
  /// clip-to-typical correction policy (paper §4.3 discusses and rejects
  /// distribution-based replacement for generative LLMs). 0 when unknown.
  float typical = 0.0f;

  bool valid() const { return lo <= hi; }

  void observe(float v) {
    if (std::isnan(v)) return;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }

  void observe_span(std::span<const float> values) {
    for (float v : values) observe(v);
  }

  void merge(const Bounds& other) {
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
  }

  /// Symmetric scaling about 0 by `factor` (the paper's bound scaling:
  /// widen limited-data bounds so normal values are not clipped).
  Bounds scaled(float factor) const {
    Bounds b;
    b.lo = lo < 0.0f ? lo * factor : lo / factor;
    b.hi = hi > 0.0f ? hi * factor : hi / factor;
    b.typical = typical;
    return b;
  }

  bool contains(float v) const { return v >= lo && v <= hi; }
};

/// Bounds for every (block, layer-kind) site of a model. Storage is two
/// floats per site — the paper's "only two bound values are stored for each
/// layer" memory-overhead argument, exposed via memory_bytes().
class BoundStore {
 public:
  BoundStore() = default;
  explicit BoundStore(const ModelConfig& config)
      : n_blocks_(config.n_blocks),
        bounds_(config.n_blocks * kLayerKindCount) {}

  bool empty() const { return bounds_.empty(); }
  std::size_t n_blocks() const { return n_blocks_; }

  Bounds& at(const LayerSite& site) {
    return bounds_[index(site)];
  }
  const Bounds& at(const LayerSite& site) const {
    return bounds_[index(site)];
  }

  void reset() {
    for (auto& b : bounds_) b = Bounds{};
  }

  void merge(const BoundStore& other) {
    FT2_CHECK(other.bounds_.size() == bounds_.size());
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      bounds_[i].merge(other.bounds_[i]);
    }
  }

  /// True when both stores hold the same bits at every site.
  bool bitwise_equal(const BoundStore& other) const {
    static_assert(sizeof(Bounds) == 3 * sizeof(float), "Bounds has padding");
    return n_blocks_ == other.n_blocks_ &&
           bounds_.size() == other.bounds_.size() &&
           (bounds_.empty() ||
            std::memcmp(bounds_.data(), other.bounds_.data(),
                        bounds_.size() * sizeof(Bounds)) == 0);
  }

  /// Number of sites with valid (observed) bounds.
  std::size_t valid_count() const {
    std::size_t n = 0;
    for (const auto& b : bounds_) n += b.valid() ? 1 : 0;
    return n;
  }

  /// Bytes needed to store the bounds of the valid sites (2 floats each).
  std::size_t memory_bytes() const { return valid_count() * 2 * sizeof(float); }

 private:
  std::size_t index(const LayerSite& site) const {
    const auto b = static_cast<std::size_t>(site.block);
    const auto k = static_cast<std::size_t>(site.kind);
    FT2_ASSERT(b < n_blocks_ && k < kLayerKindCount);
    return b * kLayerKindCount + k;
  }

  std::size_t n_blocks_ = 0;
  std::vector<Bounds> bounds_;
};

}  // namespace ft2
