// The pluggable half of the protection layer: DetectionScheme and the
// string-keyed scheme registry.
//
// A DetectionScheme implements one detection/correction algorithm behind a
// small virtual interface; the ProtectionHook driver (protect/scheme.hpp)
// owns the shared accounting around it. New detectors plug in by
// subclassing DetectionScheme and registering a factory, after which every
// consumer — `ft2 campaign --scheme`, serve-bench, the example zoo loops —
// resolves them by name with optional `name:key=value,...` parameters.
//
// Built-in registry entries:
//   none | ranger | maximals | global_clipper | ft2 | ft2_offline
//       — the range-restriction family (RangeRestrictScheme; parameters
//         `scale`, `detect_only`);
//   abft-linear  — per-row column-sum checksums on linear-layer outputs
//                  with first-token statistical calibration (ReaLM-style
//                  statistical ABFT; parameters `margin`, `scale`);
//   ft2-adaptive — FT2 bounds that re-profile online when in-bounds
//                  headroom crosses a near-clip threshold (parameters
//                  `threshold`, `scale`).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "protect/scheme.hpp"

namespace ft2 {

/// Opaque immutable snapshot of a scheme's private per-generation state
/// (online bounds, checksum calibration, ...). Captured at token boundaries
/// of fault-free recordings and shared by every trial that forks there.
class SchemeState {
 public:
  virtual ~SchemeState() = default;
};

/// One detection/correction algorithm. Implementations own only their
/// algorithm state; tallies, metrics publication, clip logging and
/// first-detect accounting live in the ProtectionHook driver.
class DetectionScheme {
 public:
  virtual ~DetectionScheme() = default;

  /// Resolved coverage/policy descriptor (drives the hook's covered-kind
  /// dispatch, drift monitoring and reporting).
  const SchemeSpec& spec() const { return spec_; }

  /// Called once when the driver is constructed with a live registry so
  /// the scheme can create handles for its private protect.* metrics.
  /// (Standard checked/nan/oob counters and clip-magnitude histograms are
  /// published by the driver — do not duplicate them here.)
  virtual void bind_metrics(MetricsRegistry& metrics) { (void)metrics; }

  /// Resets per-generation state (the driver forwards
  /// OutputHook::on_generation_begin).
  virtual void begin_generation() {}

  /// Detects (and corrects, unless spec().detect_only) faults in one
  /// dispatched span. `values` is the [ctx.n_positions x width] row-major
  /// output view, mutated in place. Report work through `delta`
  /// (values_checked / nan_corrected / oob_corrected for this dispatch
  /// only) and call `observer->on_oob(original, index)` (null-checked) for
  /// every out-of-bound correction so the driver can log clip events and
  /// magnitudes. Elementwise clipping belongs in range_restrict, which
  /// runs on the active kernel tier and does both reports when handed
  /// `&delta` and `observer`.
  virtual void detect_and_correct(const HookContext& ctx,
                                  std::span<float> values,
                                  ProtectionStats& delta,
                                  ClipObserver* observer) = 0;

  /// Snapshot of scheme-private state at a token boundary (null when the
  /// scheme carries none).
  virtual std::shared_ptr<const SchemeState> capture_state() const {
    return nullptr;
  }

  /// Reinstates a capture_state() snapshot into a freshly begun generation
  /// as if the scheme had processed the recorded prefix itself, including
  /// re-publishing any scheme-private metric increments the prefix
  /// accumulated. `state` may be null (no-op).
  virtual void restore_state(const SchemeState* state) { (void)state; }

  /// True when this scheme's state equals the capture_state() snapshot
  /// `recorded` (may be null) so closely that every dispatch from here on
  /// corrects, tallies and logs exactly as it did after the capture, and
  /// the scheme publishes no private metric that the driver's standard
  /// accounting would miss. Prefix-reuse campaigns end a fork on it
  /// (ProtectionHook::rejoin). Defaults to false: a scheme that cannot
  /// tell never rejoins.
  virtual bool state_matches(const SchemeState* recorded) const {
    (void)recorded;
    return false;
  }

  /// Bounds views for monitors/tests; schemes without the corresponding
  /// store return a shared empty store.
  virtual const BoundStore& online_bounds() const { return empty_bounds(); }
  virtual const BoundStore& offline_bounds() const { return empty_bounds(); }

  /// Per-site state footprint (paper §5.2.2). Default: two bound floats
  /// per covered layer instance.
  virtual std::size_t state_memory_bytes(const ModelConfig& config) const {
    return spec_.covered.size() * config.n_blocks * 2 * sizeof(float);
  }

 protected:
  explicit DetectionScheme(SchemeSpec spec) : spec_(std::move(spec)) {}
  static const BoundStore& empty_bounds();

  SchemeSpec spec_;
};

/// The built-in range-restriction scheme (Table 1 family): offline schemes
/// clamp every covered layer at every position using profiled bounds; FT2
/// (online) records bounds during the first-token phase (with NaN
/// correction only) and protects subsequent positions with those bounds
/// scaled by spec().bound_scale.
class RangeRestrictScheme final : public DetectionScheme {
 public:
  /// Throws ft2::Error when `spec.needs_offline_bounds` and
  /// `offline_bounds` is empty; an empty store otherwise degrades to
  /// invalid (never-observed) bounds, i.e. NaN-only correction.
  RangeRestrictScheme(const ModelConfig& config, SchemeSpec spec,
                      BoundStore offline_bounds = BoundStore{});

  void begin_generation() override;
  void detect_and_correct(const HookContext& ctx, std::span<float> values,
                          ProtectionStats& delta,
                          ClipObserver* observer) override;
  std::shared_ptr<const SchemeState> capture_state() const override;
  void restore_state(const SchemeState* state) override;
  /// Bitwise comparison of the online bounds (the offline ones never
  /// change).
  bool state_matches(const SchemeState* recorded) const override;
  const BoundStore& online_bounds() const override { return online_bounds_; }
  const BoundStore& offline_bounds() const override { return offline_bounds_; }

 private:
  BoundStore offline_bounds_;
  BoundStore online_bounds_;
};

/// Free-form scheme parameters parsed from `name:key=value,...`.
using SchemeParams = std::map<std::string, std::string>;

/// Factory helpers for parameter validation/conversion. Unknown keys and
/// malformed values (for floats: anything but a finite number, so `nan`,
/// `inf` and overflowing literals such as `1e40` too) throw ft2::Error
/// naming the scheme. The built-in factories also reject values outside a
/// parameter's domain: `scale` > 0, `margin` >= 0, `threshold` in [0, 1].
float scheme_param_float(const SchemeParams& params, const std::string& key,
                         float fallback, std::string_view scheme);
bool scheme_param_bool(const SchemeParams& params, const std::string& key,
                       bool fallback, std::string_view scheme);
void require_known_params(const SchemeParams& params,
                          std::initializer_list<std::string_view> known,
                          std::string_view scheme);

/// One registry entry: name, help line, and the factory.
struct SchemeInfo {
  std::string name;
  std::string summary;  ///< one-liner for CLI help / `ft2 scheme-names`
  /// The factory must be handed profiled bounds (campaigns/CLI profile or
  /// load them before instantiating).
  bool needs_offline_bounds = false;
  std::function<std::unique_ptr<DetectionScheme>(
      const ModelConfig& config, const SchemeParams& params,
      BoundStore offline_bounds)>
      make;
};

/// Process-wide scheme registry. Built-ins are registered on first use;
/// user code may add() custom schemes at startup (name must be unique).
/// Registration order is enumeration order.
class SchemeRegistry {
 public:
  static SchemeRegistry& instance();

  /// Throws ft2::Error on a duplicate or empty name.
  void add(SchemeInfo info);

  const SchemeInfo* find(std::string_view name) const;
  const std::vector<SchemeInfo>& entries() const { return entries_; }

 private:
  SchemeRegistry();
  std::vector<SchemeInfo> entries_;
};

/// Names of every registered scheme, in registration order (built-ins
/// first). Replaces the old hard-coded all_schemes() enum list: CLI help
/// and zoo loops enumerate the registry, so new schemes appear everywhere
/// automatically.
std::vector<std::string> all_scheme_names();

/// A parsed scheme reference: registry name plus parameters.
struct SchemeRef {
  std::string name;
  SchemeParams params;

  /// Parses `name` or `name:key=value,key=value`. Throws ft2::Error for an
  /// unknown scheme (listing the registered names) or malformed syntax.
  static SchemeRef parse(std::string_view text);

  /// Canonical display form (`ft2-adaptive:threshold=0.05`); parameters in
  /// map (sorted-key) order. Campaigns thread this into
  /// TrialRecord::scheme.
  std::string display() const;

  bool needs_offline_bounds() const;

  /// Instantiates the scheme via its registered factory.
  std::unique_ptr<DetectionScheme> instantiate(
      const ModelConfig& config, BoundStore offline_bounds = BoundStore{}) const;
};

}  // namespace ft2
