// Synthetic production load for the serve engine.
//
// build_load draws a deterministic open-loop arrival trace — Poisson or
// bursty (square-wave modulated Poisson) arrivals, bounded-Pareto
// heavy-tail prompt lengths, an optional shared system-prompt prefix on a
// fraction of requests, and an optional interactive slice with elevated
// priority and a TTFT deadline. run_load replays the trace against a
// ServeEngine on the wall clock: requests are submitted when their arrival
// time comes due whether or not the engine has caught up (open loop, so
// backlog shows up as TTFT, not as reduced offered load), streaming
// callbacks timestamp every token, and the report carries
// TTFT/inter-token-gap percentiles measured from each request's INTENDED
// arrival time plus engine-side peaks (active requests, queue depth, KV
// blocks).
//
// Both bench/bench_serve_load.cpp and `ft2 serve-bench --load` drive this;
// the same spec always yields the same trace, so baselines are comparable
// across runs and machines (timings differ, the offered work does not).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "nn/model.hpp"
#include "serve/serve_engine.hpp"

namespace ft2 {

/// Shape of the offered load. Defaults describe a small mixed workload.
struct LoadSpec {
  std::size_t n_requests = 64;
  double arrival_rate_hz = 200.0;  ///< mean arrivals per second
  bool bursty = false;             ///< square-wave modulated Poisson
  double burst_factor = 4.0;       ///< peak-to-trough rate ratio
  double burst_period_s = 0.25;    ///< one high+low cycle

  std::size_t prompt_min = 8;   ///< bounded-Pareto prompt length floor
  std::size_t prompt_max = 96;  ///< cap (also clamped to model max_seq)
  double prompt_alpha = 1.2;    ///< tail index (smaller = heavier tail)

  double shared_fraction = 0.0;        ///< requests opening with the shared
                                       ///< system prompt
  std::size_t shared_prefix_len = 32;  ///< its length in tokens

  double interactive_fraction = 0.0;  ///< high-priority short-deadline slice
  int interactive_priority = 5;
  double interactive_deadline_ms = 50.0;

  std::size_t max_new_tokens = 16;
  std::uint64_t seed = 1;
};

/// One scheduled request of the trace.
struct LoadRequest {
  double arrival_s = 0.0;  ///< offset from the start of the run
  std::vector<int> prompt;
  GenerateOptions gen;
  int priority = 0;
  double deadline_ms = std::numeric_limits<double>::infinity();
  bool shares_prefix = false;  ///< opens with the shared system prompt
};

/// Deterministic trace for `spec` (prompt tokens drawn below `vocab_size`).
std::vector<LoadRequest> build_load(const LoadSpec& spec,
                                    std::size_t vocab_size);

/// What one run_load measured.
struct LoadReport {
  std::size_t offered = 0;    ///< requests in the trace
  std::size_t submitted = 0;  ///< accepted by submit()
  std::size_t rejected = 0;   ///< refused by max_queue_depth backpressure
  std::size_t completed = 0;
  /// Streaming-callback integrity failures: tokens missing from a stream,
  /// delivered out of order, or not matching the final result. Always 0
  /// for a correct engine.
  std::size_t dropped_tokens = 0;
  std::size_t generated_tokens = 0;
  double wall_s = 0.0;
  double tokens_per_s = 0.0;
  double ttft_p50_ms = 0.0;  ///< intended arrival -> first token
  double ttft_p95_ms = 0.0;
  double ttft_p99_ms = 0.0;
  double gap_p50_ms = 0.0;  ///< consecutive tokens of one request
  double gap_p99_ms = 0.0;
  std::size_t peak_active = 0;  ///< concurrent slot-holders observed
  std::size_t peak_queue_depth = 0;
  std::size_t peak_kv_blocks = 0;  ///< KV pool blocks in use, observed
  std::size_t preemptions = 0;
  std::size_t shared_prefix_rows = 0;
};

/// Replays `load` against `engine` on the wall clock and runs it to
/// completion. The engine should be freshly constructed (peaks and counter
/// deltas assume no prior traffic).
LoadReport run_load(ServeEngine& engine, const std::vector<LoadRequest>& load);

/// p in [0, 100]; linear interpolation between order statistics. Returns 0
/// for an empty sample.
double load_percentile(std::vector<double> values, double p);

}  // namespace ft2
