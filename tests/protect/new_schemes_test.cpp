// Unit tests for the two registry-only schemes introduced with the
// DetectionScheme API (abft-linear, ft2-adaptive) plus the SchemeRef
// parse/display/param surface they plug into.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "protect/abft_linear.hpp"
#include "protect/adaptive.hpp"
#include "protect/detection_scheme.hpp"

namespace ft2 {
namespace {

ModelConfig opt_config() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = 8;
  c.n_blocks = 2;
  c.d_model = 16;
  c.d_ff = 32;
  return c;
}

HookContext ctx_at(LayerKind kind, bool first_token, std::size_t position) {
  HookContext ctx;
  ctx.site = LayerSite{0, kind};
  ctx.position = position;
  ctx.first_token_phase = first_token;
  return ctx;
}

double counter_value(const MetricsRegistry& registry,
                     const std::string& name) {
  for (const auto& c : registry.snapshot().counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return -1.0;
}

// --- abft-linear ------------------------------------------------------------

TEST(AbftLinear, SpecCoversExactlyTheLinearLayers) {
  const ModelConfig config = opt_config();
  AbftLinearScheme scheme(config);
  const SchemeSpec& spec = scheme.spec();
  EXPECT_EQ(spec.name, "abft-linear");
  EXPECT_TRUE(spec.online);
  EXPECT_TRUE(spec.correct_nan);
  EXPECT_FALSE(spec.covered.empty());
  for (LayerKind k : spec.covered) {
    EXPECT_TRUE(is_linear_layer(k)) << layer_kind_name(k);
    EXPECT_TRUE(config.has_layer(k)) << layer_kind_name(k);
  }
  // Four floats per site (row-sum interval + elementwise bounds) — double
  // the driver default.
  EXPECT_EQ(scheme.state_memory_bytes(config),
            spec.covered.size() * config.n_blocks * 4 * sizeof(float));
}

TEST(AbftLinear, ChecksumFlagsCorruptedRowAndClampsIt) {
  const ModelConfig config = opt_config();
  AbftLinearScheme scheme(config);
  MetricsRegistry registry;
  scheme.bind_metrics(registry);
  scheme.begin_generation();
  const LayerKind kind = scheme.spec().covered[0];

  // Calibrate: two fault-free rows of ones -> row-sum range [4, 4],
  // elementwise range [1, 1].
  std::vector<float> calib = {1.0f, 1.0f, 1.0f, 1.0f};
  ProtectionStats delta;
  scheme.detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);
  scheme.detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);
  EXPECT_EQ(scheme.checksum_mismatches(), 0u);

  // A clean row passes untouched.
  std::vector<float> clean = {1.0f, 1.0f, 1.0f, 1.0f};
  delta = {};
  scheme.detect_and_correct(ctx_at(kind, false, 5), clean, delta, nullptr);
  EXPECT_EQ(scheme.checksum_mismatches(), 0u);
  EXPECT_EQ(delta.oob_corrected, 0u);
  EXPECT_FLOAT_EQ(clean[0], 1.0f);

  // A spiked element shifts the row sum far outside the calibrated band:
  // the row is flagged and clamped against the scaled elementwise bounds
  // (hi = 1 * scale = 2).
  std::vector<float> faulty = {1.0f, 1.0f, 1.0f, 100.0f};
  delta = {};
  scheme.detect_and_correct(ctx_at(kind, false, 6), faulty, delta, nullptr);
  EXPECT_EQ(scheme.checksum_mismatches(), 1u);
  EXPECT_EQ(delta.oob_corrected, 1u);
  EXPECT_FLOAT_EQ(faulty[3], 2.0f);
  EXPECT_FLOAT_EQ(faulty[0], 1.0f);  // in-bound elements untouched
  EXPECT_EQ(counter_value(registry, "protect.checksum_mismatch." +
                                        std::string(layer_kind_name(kind))),
            1.0);
}

TEST(AbftLinear, NanZeroedInBothPhases) {
  AbftLinearScheme scheme(opt_config());
  scheme.begin_generation();
  const LayerKind kind = scheme.spec().covered[0];

  std::vector<float> calib = {1.0f, std::numeric_limits<float>::quiet_NaN(),
                              1.0f, 1.0f};
  ProtectionStats delta;
  scheme.detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);
  EXPECT_EQ(delta.nan_corrected, 1u);
  EXPECT_FLOAT_EQ(calib[1], 0.0f);

  std::vector<float> later = {1.0f, 1.0f,
                              std::numeric_limits<float>::quiet_NaN(), 1.0f};
  delta = {};
  scheme.detect_and_correct(ctx_at(kind, false, 4), later, delta, nullptr);
  EXPECT_EQ(delta.nan_corrected, 1u);
  EXPECT_FLOAT_EQ(later[2], 0.0f);
}

TEST(AbftLinear, UncalibratedSiteIsLeftAlone) {
  AbftLinearScheme scheme(opt_config());
  scheme.begin_generation();
  // No first-token dispatch ever reached this site: even a wild row must
  // not be flagged (there is no band to compare against).
  std::vector<float> wild = {100.0f, -100.0f, 100.0f, -100.0f};
  ProtectionStats delta;
  scheme.detect_and_correct(ctx_at(scheme.spec().covered[0], false, 3), wild,
                            delta, nullptr);
  EXPECT_EQ(scheme.checksum_mismatches(), 0u);
  EXPECT_EQ(delta.oob_corrected, 0u);
  EXPECT_FLOAT_EQ(wild[0], 100.0f);
}

TEST(AbftLinear, MarginParameterWidensTheBand) {
  const ModelConfig config = opt_config();
  // Deviation of 0.5 on a degenerate [4, 4] band: flagged at the default
  // margin, accepted at margin=1000 (tolerance 1000 * 1e-3 * 5 = 5).
  for (const auto& [margin, expect_flagged] :
       {std::pair{4.0f, true}, std::pair{1000.0f, false}}) {
    AbftLinearOptions options;
    options.margin = margin;
    AbftLinearScheme scheme(config, options);
    scheme.begin_generation();
    const LayerKind kind = scheme.spec().covered[0];
    std::vector<float> calib = {1.0f, 1.0f, 1.0f, 1.0f};
    ProtectionStats delta;
    scheme.detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);
    std::vector<float> row = {1.0f, 1.0f, 1.0f, 1.5f};
    delta = {};
    scheme.detect_and_correct(ctx_at(kind, false, 5), row, delta, nullptr);
    EXPECT_EQ(scheme.checksum_mismatches(), expect_flagged ? 1u : 0u)
        << "margin=" << margin;
  }
}

TEST(AbftLinear, StateRoundTripRepublishesMismatchCounters) {
  const ModelConfig config = opt_config();
  AbftLinearScheme scheme(config);
  scheme.begin_generation();
  const LayerKind kind = scheme.spec().covered[0];
  std::vector<float> calib = {1.0f, 1.0f, 1.0f, 1.0f};
  ProtectionStats delta;
  scheme.detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);
  std::vector<float> faulty = {1.0f, 1.0f, 1.0f, 100.0f};
  scheme.detect_and_correct(ctx_at(kind, false, 5), faulty, delta, nullptr);
  ASSERT_EQ(scheme.checksum_mismatches(), 1u);
  const auto state = scheme.capture_state();
  ASSERT_NE(state, nullptr);

  AbftLinearScheme restored(config);
  MetricsRegistry registry;
  restored.bind_metrics(registry);
  restored.begin_generation();
  restored.restore_state(state.get());
  EXPECT_EQ(restored.checksum_mismatches(), 1u);
  EXPECT_EQ(counter_value(registry, "protect.checksum_mismatch." +
                                        std::string(layer_kind_name(kind))),
            1.0);
  // Calibration came along: the restored scheme flags the same corruption.
  std::vector<float> again = {1.0f, 1.0f, 1.0f, 100.0f};
  delta = {};
  restored.detect_and_correct(ctx_at(kind, false, 6), again, delta, nullptr);
  EXPECT_EQ(restored.checksum_mismatches(), 2u);
  EXPECT_FLOAT_EQ(again[3], 2.0f);
}

// --- ft2-adaptive -----------------------------------------------------------

TEST(AdaptiveFt2, BehavesLikeFt2UntilHeadroomShrinks) {
  const ModelConfig config = opt_config();
  AdaptiveFt2Scheme scheme(config);
  MetricsRegistry registry;
  scheme.bind_metrics(registry);
  scheme.begin_generation();
  const LayerKind kind = scheme.spec().covered[0];

  // First-token calibration: raw bounds [-1, 1], enforced (x2) [-2, 2].
  std::vector<float> calib = {0.5f, -0.5f, 1.0f, -1.0f};
  ProtectionStats delta;
  scheme.detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);
  const LayerSite site{0, kind};
  ASSERT_TRUE(scheme.online_bounds().at(site).valid());
  EXPECT_FLOAT_EQ(scheme.online_bounds().at(site).hi, 1.0f);

  // Comfortable dispatch (usage 0.25, headroom 0.75): no re-profile.
  std::vector<float> comfy = {0.5f, 0.1f, -0.2f, 0.3f};
  delta = {};
  scheme.detect_and_correct(ctx_at(kind, false, 4), comfy, delta, nullptr);
  EXPECT_EQ(scheme.adapt_events(), 0u);
  EXPECT_FLOAT_EQ(scheme.online_bounds().at(site).hi, 1.0f);

  // Near-clip dispatch (1.9 / 2.0 = usage 0.95, headroom 0.05 <= 0.10):
  // clean, so the raw bounds absorb the extremes.
  std::vector<float> near = {1.9f, 0.0f, 0.0f, 0.0f};
  delta = {};
  scheme.detect_and_correct(ctx_at(kind, false, 5), near, delta, nullptr);
  EXPECT_EQ(delta.oob_corrected, 0u);
  EXPECT_EQ(scheme.adapt_events(), 1u);
  EXPECT_FLOAT_EQ(scheme.online_bounds().at(site).hi, 1.9f);
  EXPECT_EQ(counter_value(registry, "protect.adapt." +
                                        std::string(layer_kind_name(kind))),
            1.0);

  // The same value again now has headroom (enforced hi = 3.8): no adapt.
  std::vector<float> again = {1.9f, 0.0f, 0.0f, 0.0f};
  delta = {};
  scheme.detect_and_correct(ctx_at(kind, false, 6), again, delta, nullptr);
  EXPECT_EQ(scheme.adapt_events(), 1u);
}

TEST(AdaptiveFt2, CorrectedDispatchNeverWidensBounds) {
  AdaptiveFt2Scheme scheme(opt_config());
  scheme.begin_generation();
  const LayerKind kind = scheme.spec().covered[0];
  std::vector<float> calib = {1.0f, -1.0f, 0.0f, 0.0f};
  ProtectionStats delta;
  scheme.detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);

  // 5.0 exceeds the enforced hi (2.0): it is clipped, and the excursion
  // must NOT be merged into the raw bounds.
  std::vector<float> faulty = {5.0f, 0.0f, 0.0f, 0.0f};
  delta = {};
  scheme.detect_and_correct(ctx_at(kind, false, 4), faulty, delta, nullptr);
  EXPECT_EQ(delta.oob_corrected, 1u);
  EXPECT_FLOAT_EQ(faulty[0], 2.0f);  // kToBound
  EXPECT_EQ(scheme.adapt_events(), 0u);
  EXPECT_FLOAT_EQ(scheme.online_bounds().at(LayerSite{0, kind}).hi, 1.0f);
}

TEST(AdaptiveFt2, StateRoundTripRepublishesAdaptCounters) {
  const ModelConfig config = opt_config();
  AdaptiveFt2Scheme scheme(config);
  scheme.begin_generation();
  const LayerKind kind = scheme.spec().covered[0];
  std::vector<float> calib = {1.0f, -1.0f, 0.0f, 0.0f};
  ProtectionStats delta;
  scheme.detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);
  std::vector<float> near = {1.9f, 0.0f, 0.0f, 0.0f};
  scheme.detect_and_correct(ctx_at(kind, false, 4), near, delta, nullptr);
  ASSERT_EQ(scheme.adapt_events(), 1u);
  const auto state = scheme.capture_state();
  ASSERT_NE(state, nullptr);

  AdaptiveFt2Scheme restored(config);
  MetricsRegistry registry;
  restored.bind_metrics(registry);
  restored.begin_generation();
  restored.restore_state(state.get());
  EXPECT_EQ(restored.adapt_events(), 1u);
  EXPECT_FLOAT_EQ(restored.online_bounds().at(LayerSite{0, kind}).hi, 1.9f);
  EXPECT_EQ(counter_value(registry, "protect.adapt." +
                                        std::string(layer_kind_name(kind))),
            1.0);
}

// --- SchemeRef / registry ---------------------------------------------------

TEST(SchemeRef, ParsesBareNameAndParameters) {
  const SchemeRef bare = SchemeRef::parse("ft2");
  EXPECT_EQ(bare.name, "ft2");
  EXPECT_TRUE(bare.params.empty());
  EXPECT_EQ(bare.display(), "ft2");
  EXPECT_FALSE(bare.needs_offline_bounds());

  const SchemeRef ref =
      SchemeRef::parse("ft2-adaptive:threshold=0.2,scale=3");
  EXPECT_EQ(ref.name, "ft2-adaptive");
  EXPECT_EQ(ref.params.at("threshold"), "0.2");
  EXPECT_EQ(ref.params.at("scale"), "3");
  // Canonical display: sorted-key order, independent of input order.
  EXPECT_EQ(ref.display(), "ft2-adaptive:scale=3,threshold=0.2");
}

TEST(SchemeRef, RejectsUnknownSchemesAndMalformedSyntax) {
  EXPECT_THROW(SchemeRef::parse("no_such_scheme"), Error);
  EXPECT_THROW(SchemeRef::parse("ft2:not_a_pair"), Error);
  EXPECT_THROW(SchemeRef::parse(""), Error);
}

TEST(SchemeRef, FactoryRejectsUnknownAndMalformedParams) {
  const ModelConfig config = opt_config();
  EXPECT_THROW(
      SchemeRef::parse("abft-linear:bogus=1").instantiate(config), Error);
  EXPECT_THROW(
      SchemeRef::parse("ft2-adaptive:threshold=abc").instantiate(config),
      Error);
  // Non-finite values (1e40 overflows float to inf) and values outside a
  // parameter's domain: a scale <= 0 or NaN would invalidate or collapse
  // every bound instead of failing loudly.
  for (const char* bad :
       {"ft2:scale=nan", "ft2:scale=inf", "ft2:scale=-inf", "ft2:scale=1e40",
        "ft2:scale=-1", "ft2:scale=0", "none:scale=0", "abft-linear:scale=0",
        "abft-linear:scale=-2", "abft-linear:margin=-1",
        "abft-linear:margin=nan", "ft2-adaptive:scale=-1",
        "ft2-adaptive:threshold=-0.1", "ft2-adaptive:threshold=1.5",
        "ft2-adaptive:threshold=inf"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(SchemeRef::parse(bad).instantiate(config), Error);
  }
  // The error names the scheme and the parameter.
  try {
    SchemeRef::parse("ft2-adaptive:threshold=2").instantiate(config);
    ADD_FAILURE() << "threshold=2 accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ft2-adaptive"), std::string::npos) << what;
    EXPECT_NE(what.find("threshold"), std::string::npos) << what;
  }
  // Domain edges are accepted.
  EXPECT_NO_THROW(
      SchemeRef::parse("abft-linear:margin=0,scale=0.5").instantiate(config));
  EXPECT_NO_THROW(
      SchemeRef::parse("ft2-adaptive:threshold=0").instantiate(config));
  EXPECT_NO_THROW(
      SchemeRef::parse("ft2-adaptive:threshold=1").instantiate(config));
  // Offline schemes refuse to instantiate without profiled bounds.
  EXPECT_THROW(SchemeRef::parse("ranger").instantiate(config), Error);
  EXPECT_TRUE(SchemeRef::parse("ranger").needs_offline_bounds());
}

TEST(SchemeRef, ParametersReachTheScheme) {
  const ModelConfig config = opt_config();
  const auto scheme =
      SchemeRef::parse("ft2-adaptive:threshold=0.9").instantiate(config);
  auto* adaptive = dynamic_cast<AdaptiveFt2Scheme*>(scheme.get());
  ASSERT_NE(adaptive, nullptr);
  adaptive->begin_generation();
  const LayerKind kind = adaptive->spec().covered[0];
  std::vector<float> calib = {1.0f, -1.0f, 0.0f, 0.0f};
  ProtectionStats delta;
  adaptive->detect_and_correct(ctx_at(kind, true, 0), calib, delta, nullptr);
  // Usage 0.25 -> headroom 0.75 <= 0.9: the widened threshold triggers a
  // re-profile the default (0.10) would not.
  std::vector<float> modest = {0.5f, 0.0f, 0.0f, 0.0f};
  delta = {};
  adaptive->detect_and_correct(ctx_at(kind, false, 4), modest, delta,
                               nullptr);
  EXPECT_EQ(adaptive->adapt_events(), 1u);

  const auto abft =
      SchemeRef::parse("abft-linear:margin=9,scale=3").instantiate(config);
  ASSERT_NE(dynamic_cast<AbftLinearScheme*>(abft.get()), nullptr);
}

TEST(SchemeRegistry, BuiltInsEnumerateAndResolve) {
  const auto names = all_scheme_names();
  for (const char* expected :
       {"none", "ranger", "maximals", "global_clipper", "ft2", "ft2_offline",
        "abft-linear", "ft2-adaptive"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    const SchemeInfo* info = SchemeRegistry::instance().find(expected);
    ASSERT_NE(info, nullptr) << expected;
    EXPECT_FALSE(info->summary.empty()) << expected;
  }
  EXPECT_EQ(SchemeRegistry::instance().find("nope"), nullptr);
}

}  // namespace
}  // namespace ft2
