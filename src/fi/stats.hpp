// Campaign statistics: confidence intervals for injection-outcome rates.
//
// The paper's headline SDC/Masked numbers rest on millions of injections;
// reporting them as raw counts hides the sampling error. This module makes
// the error bands first-class: Wilson score intervals (numeric/stats.hpp's
// proportion_ci, robust near the 0%/100% edges where FT2's SDC rates
// live) and percentile-bootstrap
// intervals resampled from a fixed Philox stream, so every reported CI is
// bit-reproducible from (counts, seed) alone — no trial data needed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "numeric/stats.hpp"

namespace ft2 {

/// One deterministic draw from Binomial(n, p) using `rng`.
///
/// Exact inversion: small n sums Bernoulli draws; large n inverts the CDF
/// from the distribution mode outward (O(sqrt(n p (1-p))) expected steps),
/// consuming exactly one uniform. Same (rng state, n, p) -> same draw, so
/// bootstrap resampling is reproducible across runs and machines with the
/// same floating-point contract.
std::size_t binomial_sample(PhiloxStream& rng, std::size_t n, double p);

/// Percentile-bootstrap confidence interval for a binomial proportion.
struct BootstrapCI {
  double p = 0.0;           ///< point estimate successes/trials
  double lo = 0.0;          ///< lower percentile bound
  double hi = 0.0;          ///< upper percentile bound
  std::size_t resamples = 0;
};

struct BootstrapOptions {
  std::size_t resamples = 2000;
  /// Two-sided confidence level; 0.95 takes the 2.5% / 97.5% percentiles.
  double confidence = 0.95;
  /// Philox seed. Every (successes, trials) pair derives its own stream
  /// from this seed, so CIs for different table cells are independent yet
  /// all reproducible from one number.
  std::uint64_t seed = 0x5eedc1f0;
};

/// Resamples Binomial(trials, successes/trials) `resamples` times and
/// returns the percentile interval of the resampled rates. Deterministic
/// under a fixed seed (pinned by tests/fi/stats_test.cpp). Degenerate
/// inputs collapse cleanly: trials == 0 -> all zeros; p in {0, 1} ->
/// [p, p].
BootstrapCI bootstrap_proportion_ci(std::size_t successes, std::size_t trials,
                                    const BootstrapOptions& options = {});

}  // namespace ft2
