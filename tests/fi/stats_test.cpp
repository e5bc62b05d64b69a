// Campaign statistics golden tests: Wilson intervals against published
// reference values (Newcombe 1998's worked examples plus the p=0 / p=1 /
// n=1 edges) and bit-reproducible bootstrap CIs under a fixed Philox seed.
#include "fi/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"

namespace ft2 {
namespace {

constexpr double kTol = 1e-4;

void expect_wilson(std::size_t k, std::size_t n, double lo, double hi) {
  const ProportionCI ci = proportion_ci(k, n);
  EXPECT_NEAR(ci.lo, lo, kTol) << k << "/" << n;
  EXPECT_NEAR(ci.hi, hi, kTol) << k << "/" << n;
  EXPECT_DOUBLE_EQ(ci.p, static_cast<double>(k) / static_cast<double>(n));
}

TEST(WilsonCI, MatchesPublishedReferenceValues) {
  // Newcombe (1998), "Two-sided confidence intervals for the single
  // proportion", worked examples for the Wilson score method at 95%.
  expect_wilson(81, 263, 0.255289, 0.366210);
  expect_wilson(2, 29, 0.019121, 0.219646);
  // Standard n=10 table values.
  expect_wilson(0, 10, 0.0, 0.277533);
  expect_wilson(1, 10, 0.017876, 0.404150);
  expect_wilson(5, 10, 0.236593, 0.763407);
  expect_wilson(10, 10, 0.722467, 1.0);
}

TEST(WilsonCI, EdgeCases) {
  // p = 0 pins the lower bound to exactly 0, p = 1 the upper to exactly 1
  // (the Wilson limits are exact there, no clamping slop).
  EXPECT_DOUBLE_EQ(proportion_ci(0, 10).lo, 0.0);
  EXPECT_DOUBLE_EQ(proportion_ci(10, 10).hi, 1.0);
  // n = 1: the widest informative interval.
  expect_wilson(0, 1, 0.0, 0.793451);
  expect_wilson(1, 1, 0.206549, 1.0);
  // The interval always brackets the point estimate.
  for (std::size_t k : {0u, 1u, 3u, 7u, 10u}) {
    const ProportionCI ci = proportion_ci(k, 10);
    EXPECT_LE(ci.lo, ci.p);
    EXPECT_GE(ci.hi, ci.p);
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_LE(ci.hi, 1.0);
  }
}

TEST(BinomialSample, EdgeCasesAndRange) {
  PhiloxStream rng(7, 0);
  EXPECT_EQ(binomial_sample(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial_sample(rng, 100, 0.0), 0u);
  EXPECT_EQ(binomial_sample(rng, 100, -1.0), 0u);
  EXPECT_EQ(binomial_sample(rng, 100, 1.0), 100u);
  EXPECT_EQ(binomial_sample(rng, 100, 2.0), 100u);
  // Small-n (Bernoulli-sum) and large-n (CDF-inversion) paths both land
  // in [0, n] and near n*p for a concentrated distribution.
  for (std::size_t n : {10u, 64u, 65u, 10000u}) {
    const std::size_t k = binomial_sample(rng, n, 0.3);
    EXPECT_LE(k, n);
  }
  const std::size_t big = binomial_sample(rng, 100000, 0.3);
  EXPECT_GT(big, 28000u);
  EXPECT_LT(big, 32000u);
}

TEST(BinomialSample, DeterministicUnderFixedStream) {
  PhiloxStream a(42, 9);
  PhiloxStream b(42, 9);
  for (std::size_t n : {5u, 64u, 1000u, 100000u}) {
    EXPECT_EQ(binomial_sample(a, n, 0.37), binomial_sample(b, n, 0.37)) << n;
  }
}

TEST(BootstrapCI, DeterministicUnderFixedSeed) {
  const BootstrapCI a = bootstrap_proportion_ci(37, 500);
  const BootstrapCI b = bootstrap_proportion_ci(37, 500);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_DOUBLE_EQ(a.p, b.p);
  EXPECT_EQ(a.resamples, b.resamples);

  // A different seed resamples differently (still deterministically).
  BootstrapOptions other;
  other.seed = 0xdeadbeef;
  const BootstrapCI c = bootstrap_proportion_ci(37, 500, other);
  EXPECT_TRUE(c.lo != a.lo || c.hi != a.hi);
}

TEST(BootstrapCI, BracketsThePointEstimate) {
  for (std::size_t k : {1u, 37u, 250u, 499u}) {
    const BootstrapCI ci = bootstrap_proportion_ci(k, 500);
    const double p = static_cast<double>(k) / 500.0;
    EXPECT_LE(ci.lo, p) << k;
    EXPECT_GE(ci.hi, p) << k;
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_LE(ci.hi, 1.0);
    EXPECT_LT(ci.lo, ci.hi) << k;
  }
  // Near the campaign regime (sub-1% SDC at large n) the bootstrap and
  // Wilson intervals agree to well under a percentage point.
  const BootstrapCI boot = bootstrap_proportion_ci(250, 100000);
  const ProportionCI wilson = proportion_ci(250, 100000);
  EXPECT_NEAR(boot.lo, wilson.lo, 5e-4);
  EXPECT_NEAR(boot.hi, wilson.hi, 5e-4);
}

TEST(BootstrapCI, DegenerateInputsCollapseCleanly) {
  const BootstrapCI none = bootstrap_proportion_ci(0, 0);
  EXPECT_DOUBLE_EQ(none.p, 0.0);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 0.0);

  const BootstrapCI zero = bootstrap_proportion_ci(0, 100);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_DOUBLE_EQ(zero.hi, 0.0);

  const BootstrapCI one = bootstrap_proportion_ci(100, 100);
  EXPECT_DOUBLE_EQ(one.lo, 1.0);
  EXPECT_DOUBLE_EQ(one.hi, 1.0);
}

TEST(BootstrapCI, RejectsInvalidArguments) {
  EXPECT_THROW(bootstrap_proportion_ci(11, 10), Error);
  BootstrapOptions bad;
  bad.resamples = 0;
  EXPECT_THROW(bootstrap_proportion_ci(1, 10, bad), Error);
  bad = {};
  bad.confidence = 1.0;
  EXPECT_THROW(bootstrap_proportion_ci(1, 10, bad), Error);
  bad.confidence = 0.0;
  EXPECT_THROW(bootstrap_proportion_ci(1, 10, bad), Error);
}

}  // namespace
}  // namespace ft2
