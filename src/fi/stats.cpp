#include "fi/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace ft2 {

namespace {

/// log Binomial(n, p) pmf at k via log-gamma (stable at campaign scale,
/// where n is millions and naive factorials overflow immediately).
double log_binomial_pmf(std::size_t n, std::size_t k, double p) {
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
         std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
         (nd - kd) * std::log1p(-p);
}

}  // namespace

std::size_t binomial_sample(PhiloxStream& rng, std::size_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) {
    // Direct Bernoulli sum: n uniforms, exact.
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform_double() < p) ++k;
    }
    return k;
  }
  // Mode-centered inversion on one uniform: walk outward from the mode
  // (k, k+1, k-1, k+2, ...) accumulating pmf until the uniform is covered.
  // Expected O(sqrt(n p (1-p))) steps because the mass concentrates there.
  const double u = rng.uniform_double();
  const std::size_t mode = std::min(
      n, static_cast<std::size_t>(static_cast<double>(n + 1) * p));
  const double q = 1.0 - p;
  double pmf_up = std::exp(log_binomial_pmf(n, mode, p));
  double pmf_down = pmf_up;
  double cum = pmf_up;
  std::size_t up = mode;    // last k accounted for above the mode
  std::size_t down = mode;  // last k accounted for below the mode
  std::size_t last = mode;
  while (cum < u && (up < n || down > 0)) {
    if (up < n) {
      pmf_up *= static_cast<double>(n - up) /
                static_cast<double>(up + 1) * (p / q);
      ++up;
      cum += pmf_up;
      last = up;
      if (cum >= u) break;
    }
    if (down > 0) {
      pmf_down *= static_cast<double>(down) /
                  static_cast<double>(n - down + 1) * (q / p);
      --down;
      cum += pmf_down;
      last = down;
    }
  }
  return last;
}

BootstrapCI bootstrap_proportion_ci(std::size_t successes, std::size_t trials,
                                    const BootstrapOptions& options) {
  FT2_CHECK_MSG(successes <= trials,
                "bootstrap CI: " << successes << " successes > " << trials
                                 << " trials");
  FT2_CHECK_MSG(options.resamples > 0, "bootstrap CI: zero resamples");
  FT2_CHECK_MSG(options.confidence > 0.0 && options.confidence < 1.0,
                "bootstrap CI: confidence must be in (0, 1)");
  BootstrapCI ci;
  ci.resamples = options.resamples;
  if (trials == 0) return ci;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  ci.p = p;
  if (successes == 0 || successes == trials) {
    // Resampling a degenerate empirical distribution only ever reproduces
    // it; skip the draws and collapse the interval.
    ci.lo = ci.hi = p;
    return ci;
  }
  // Each (successes, trials) cell derives its own Philox stream, so every
  // table cell's CI is independent yet reproducible from the one seed.
  const std::uint64_t stream =
      static_cast<std::uint64_t>(successes) +
      0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(trials);
  PhiloxStream rng(options.seed, stream);
  std::vector<double> rates;
  rates.reserve(options.resamples);
  for (std::size_t r = 0; r < options.resamples; ++r) {
    rates.push_back(static_cast<double>(binomial_sample(rng, trials, p)) / n);
  }
  std::sort(rates.begin(), rates.end());
  const auto percentile = [&](double frac) {
    const double rank = frac * static_cast<double>(rates.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    const double t = rank - static_cast<double>(lo);
    return rates[lo] * (1.0 - t) + rates[hi] * t;
  };
  const double alpha = (1.0 - options.confidence) / 2.0;
  ci.lo = percentile(alpha);
  ci.hi = percentile(1.0 - alpha);
  return ci;
}

}  // namespace ft2
