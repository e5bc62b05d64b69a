#include "protect/range_restriction.hpp"

#include <cmath>

#include "tensor/dispatch.hpp"

namespace ft2 {

void range_restrict(std::span<float> values, const Bounds& bounds,
                    ClipPolicy policy, bool correct_nan,
                    ProtectionStats* stats, bool detect_only,
                    ClipObserver* observer) {
  using Protect = KernelEpilogue::Protect;
  KernelEpilogue epi;
  epi.detect_only = detect_only;
  epi.record_events = observer != nullptr;
  if (!bounds.valid()) {
    if (!correct_nan) return;
    epi.protect = Protect::kNanOnly;
  } else {
    epi.protect = Protect::kBounds;
    epi.correct_nan = correct_nan;
    epi.lo = bounds.lo;
    epi.hi = bounds.hi;
    switch (policy) {
      case ClipPolicy::kToBound:
        epi.lo_sub = bounds.lo;
        epi.hi_sub = bounds.hi;
        break;
      case ClipPolicy::kToZero:
        epi.lo_sub = epi.hi_sub = 0.0f;
        break;
      case ClipPolicy::kToTypical:
        epi.lo_sub = epi.hi_sub = bounds.typical;
        break;
    }
  }
  EpilogueTally tally;
  active_kernel_ops().epilogue_span(values.data(), values.size(), 0, epi,
                                    &tally);
  if (stats != nullptr) {
    stats->values_checked += values.size();
    stats->nan_corrected += tally.nan;
    stats->oob_corrected += tally.oob;
  }
  for (const EpilogueEvent& event : tally.events) {
    observer->on_oob(event.original, event.index);
  }
}

std::size_t correct_nan_to_zero(std::span<float> values) {
  std::size_t n = 0;
  for (float& v : values) {
    if (std::isnan(v)) {
      v = 0.0f;
      ++n;
    }
  }
  return n;
}

}  // namespace ft2
