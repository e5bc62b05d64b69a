// The range-restriction correction kernel.
//
// Two correction policies exist in the literature:
//  * kToZero  — clip out-of-bound neurons to 0 (CNN-era schemes: Ranger,
//               MaxiMals, Global Clipper);
//  * kToBound — clip to the violated bound (FT2's choice, take-away #8:
//               generative LLMs legitimately produce large neuron values,
//               so zeroing an outlier destroys information).
// NaN handling is separate because NaNs compare false against any bound.
#pragma once

#include <cstddef>
#include <span>

#include "protect/bounds.hpp"

namespace ft2 {

enum class ClipPolicy {
  kToBound,    ///< FT2: clip to the violated bound
  kToZero,     ///< CNN-era schemes: zero the outlier
  kToTypical,  ///< Dr.DNA-style: replace with a typical (median) value
};

struct ProtectionStats {
  std::size_t values_checked = 0;
  std::size_t nan_corrected = 0;
  std::size_t oob_corrected = 0;

  void merge(const ProtectionStats& other) {
    values_checked += other.values_checked;
    nan_corrected += other.nan_corrected;
    oob_corrected += other.oob_corrected;
  }
};

/// Optional per-event observer for range_restrict: called once per
/// out-of-bound value corrected (or, in detect_only mode, detected) with
/// the ORIGINAL pre-correction value and its index into the dispatched span
/// (callers with multi-position spans map the index back to a sequence
/// position), in ascending index order. Observers only observe — the
/// correction result is identical with or without one. Used to feed
/// protect.* clip-magnitude histograms without burdening the common
/// no-observer path.
class ClipObserver {
 public:
  virtual ~ClipObserver() = default;
  virtual void on_oob(float original, std::size_t index) {
    (void)original;
    (void)index;
  }
};

/// Applies range restriction in place. Infinities count as out-of-bound.
/// When `correct_nan` is false NaNs pass through untouched (schemes without
/// NaN handling). Invalid (never-observed) bounds degrade to NaN-only
/// correction, or to nothing at all without `correct_nan`. `stats` may be
/// null. With `detect_only` the pass counts violations without modifying
/// any value (detector mode). `observer`, when non-null, is notified of
/// every out-of-bound event. The sweep is the active kernel tier's
/// KernelOps::epilogue_span (tensor/dispatch.hpp) with quantization off;
/// every tier gives bit-identical values, counts and events.
void range_restrict(std::span<float> values, const Bounds& bounds,
                    ClipPolicy policy, bool correct_nan,
                    ProtectionStats* stats, bool detect_only = false,
                    ClipObserver* observer = nullptr);

/// NaN-only correction (FT2's first-token phase and the Fig. 11 ablation):
/// replaces NaN with 0, leaves all finite values and infinities untouched.
std::size_t correct_nan_to_zero(std::span<float> values);

}  // namespace ft2
