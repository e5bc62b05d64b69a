// Shared pieces of the repo benchmark: the benchmark model, the run context
// every workload receives, metric collection, and span bookkeeping.
//
// Everything the program under test sees is built here or by the workload
// files from the command-line seed; nothing is read from the environment.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The one model every workload and layer probe runs: random-weight Llama,
/// d_model 128, 8 heads, 4 blocks, d_ff 384, max_seq 256. Weights are fixed
/// (not seeded by the run) so runs with different seeds differ only in the
/// inputs they offer.
ft2::TransformerLM make_model();

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Named metrics of one run, each with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What a workload hands back to main.
struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  MetricMap metrics;
  /// Metric-name prefixes of layers this workload bypasses; main reports
  /// their per-layer metrics as 0 in traced runs.
  std::vector<std::string> bypassed_layers;
};

/// Everything a workload needs from the command line and main.
struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// One-worker pool handed to every ServeOptions / GenerateOptions /
  /// CampaignConfig / prepare_eval_inputs call (see README.md for why).
  ft2::ThreadPool* pool = nullptr;
  /// The benchmark's own span recorder: enabled only in traced runs.
  ft2::Tracer* tracer = nullptr;
  /// Always-disabled tracer handed to the program's ObsSinks, so the
  /// program's internal spans never reach Tracer::global().
  ft2::Tracer* program_tracer = nullptr;

  /// Sinks for a program component: a private registry, no program spans.
  ft2::ObsSinks sinks(ft2::MetricsRegistry& registry) const {
    return ft2::ObsSinks{&registry, program_tracer};
  }
};

inline constexpr std::size_t kSetupReps = 9;

/// Calls `build` (returning a std::unique_ptr) kSetupReps times, keeps the
/// last result and stores the median build time in `setup_s`: set-up is
/// repeated so `setup_s` is a median, not one noisy sample. The previous
/// result is destroyed outside the timed window.
template <typename Fn>
auto build_timed(Fn&& build, double& setup_s) {
  decltype(build()) last;
  std::vector<double> s;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    last = nullptr;
    const Clock::time_point t0 = Clock::now();
    last = build();
    s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  setup_s = median(std::move(s));
  return last;
}

/// Per-name totals over a set of spans that nest properly on one thread.
/// Self time is a span's duration minus the time its direct children cover.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};
std::map<std::string, SpanTotals> summarize_spans(
    std::vector<ft2::TraceEvent> events);

/// Sum of every counter in `snap` whose name starts with `prefix`.
std::uint64_t counter_sum(const ft2::MetricsSnapshot& snap,
                          const std::string& prefix);

/// Per-layer probes: direct calls into nn, tensor and protect at the
/// workloads' shapes (layer_probes.cpp). Adds nn.*, tensor.* and the
/// protect.*_overhead_pct metrics.
void probe_layers(const ft2::TransformerLM& model, const RunContext& ctx,
                  MetricMap& out);

}  // namespace perfbench
