// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms with a lock-free fast path.
//
// Every subsystem that used to keep ad-hoc tallies (ServeCounters,
// ProtectionStats, campaign outcome counts) can now ALSO publish them
// through one MetricsRegistry, so a single snapshot() call exports the
// whole process state as JSON or a human table — no bespoke printf
// counters per benchmark.
//
// Concurrency model: each metric cell holds kMetricStripes cache-line-
// separated atomic slots; a thread picks its stripe once (thread_local)
// and updates it with relaxed atomics, so concurrent writers never
// contend on a line and never take a lock. snapshot() sums the stripes.
// Registration (name -> cell lookup) takes a mutex — do it once at
// construction time, not per event. A snapshot taken while writers are
// active is per-metric consistent (each value is a valid point-in-time
// sum) but not a cross-metric atomic cut.
//
// Handles (Counter / Gauge / HistogramMetric) are cheap copyable views.
// A default-constructed handle is inert: every operation is a single
// null-check branch, which is what "metrics disabled" compiles down to.
//
// Naming scheme (enforced by convention, see docs/OBSERVABILITY.md):
//   <subsystem>.<object>.<measure>[_<unit>][.<tag>]
// e.g. serve.queue.wait_ms, protect.oob.V_PROJ, campaign.outcome.sdc.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ft2 {

class Json;
class Table;

inline constexpr std::size_t kMetricStripes = 16;

namespace detail_obs {

/// One cache line per stripe so concurrent writers never false-share.
struct alignas(64) Stripe {
  std::atomic<std::uint64_t> value{0};
};

/// Stripe index of the calling thread: assigned round-robin on first use,
/// constant for the thread's lifetime.
std::size_t stripe_index();

struct CounterCell {
  std::string name;
  std::array<Stripe, kMetricStripes> stripes;

  void add(std::uint64_t n) {
    stripes[stripe_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t sum() const;
};

struct GaugeCell {
  std::string name;
  std::atomic<double> value{0.0};
};

/// Histogram over fixed, ascending bucket upper bounds. A sample lands in
/// the first bucket whose upper bound is >= the sample ("le" semantics);
/// samples above the last bound land in an implicit +inf overflow bucket.
/// NaN samples are counted separately and never touch buckets or the sum.
struct HistogramCell {
  std::string name;
  std::vector<double> uppers;  ///< ascending; overflow bucket appended
  /// counts[stripe * n_buckets + bucket]; n_buckets == uppers.size() + 1.
  std::vector<Stripe> counts;
  std::array<Stripe, kMetricStripes> nan_counts;
  /// Sum of all finite samples, bit-cast double per stripe (CAS add).
  std::array<Stripe, kMetricStripes> sums;

  void add(double x);
  void add_prebucketed(std::span<const std::uint64_t> bucket_counts,
                       double sum);
  std::size_t n_buckets() const { return uppers.size() + 1; }
};

}  // namespace detail_obs

/// Monotonic event counter handle. Inert when default-constructed.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->add(n);
  }
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail_obs::CounterCell* cell) : cell_(cell) {}
  detail_obs::CounterCell* cell_ = nullptr;
};

/// Last-writer-wins instantaneous value handle (e.g. batch occupancy).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail_obs::GaugeCell* cell) : cell_(cell) {}
  detail_obs::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle (latencies, clip magnitudes).
class HistogramMetric {
 public:
  HistogramMetric() = default;
  void observe(double x) {
    if (cell_ != nullptr) cell_->add(x);
  }
  /// Merges counts a caller has already bucketed with this histogram's
  /// semantics (bucket i = first upper >= x, trailing overflow) plus the
  /// corresponding sample sum — one call instead of one observe() per
  /// sample, for hooks that accumulate on a hot path and flush at a
  /// boundary. `bucket_counts.size()` must equal uppers.size() + 1.
  void observe_prebucketed(std::span<const std::uint64_t> bucket_counts,
                           double sum) {
    if (cell_ != nullptr) cell_->add_prebucketed(bucket_counts, sum);
  }
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit HistogramMetric(detail_obs::HistogramCell* cell) : cell_(cell) {}
  detail_obs::HistogramCell* cell_ = nullptr;
};

/// Point-in-time export of a registry: every metric, sorted by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> uppers;         ///< finite upper bounds
    std::vector<std::uint64_t> counts;  ///< uppers.size() + 1 (overflow last)
    std::uint64_t count = 0;            ///< total finite samples
    std::uint64_t nan_count = 0;
    double sum = 0.0;

    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Linear-interpolated quantile over the bucketed counts (q in [0,1]).
    double quantile(double q) const;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Lookup helpers (null when the metric does not exist).
  const CounterValue* find_counter(std::string_view name) const;
  const GaugeValue* find_gauge(std::string_view name) const;
  const HistogramValue* find_histogram(std::string_view name) const;

  /// Counter value, or 0 when absent — the common test assertion shape.
  std::uint64_t counter_value(std::string_view name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {buckets,
  /// counts, count, sum, nan_count}}} via common/json.hpp.
  Json to_json() const;

  /// Inverse of to_json() (derived p50/p95/p99/mean fields are recomputed,
  /// not read back). Cross-process consumers — the shard telemetry parent
  /// and `ft2 top --connect` — use this to rebuild a snapshot from a frame
  /// or /snapshot.json body. Throws ft2::Error on a malformed document.
  static MetricsSnapshot from_json(const Json& doc);

  /// Human-readable table (one row per metric; histograms show
  /// count/mean/p50/p95/p99) via common/table.hpp.
  Table to_table() const;
};

/// Registry of named metrics. Registration is idempotent: asking for an
/// existing name returns a handle to the same cell (histograms must repeat
/// the same bucket bounds). Cells live as long as the registry — keep the
/// registry alive while handles are in use.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  HistogramMetric histogram(std::string_view name,
                            std::span<const double> uppers);

  /// Sums all stripes into a sorted point-in-time view.
  MetricsSnapshot snapshot() const;

  /// Zeroes every metric (keeps registrations). Test isolation helper.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<detail_obs::CounterCell>> counters_;
  std::vector<std::unique_ptr<detail_obs::GaugeCell>> gauges_;
  std::vector<std::unique_ptr<detail_obs::HistogramCell>> histograms_;
};

/// `count` exponential bucket upper bounds: start, start*factor, ...
std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count);

/// Default latency buckets in milliseconds: 0.05ms .. ~26s, factor 2.
std::span<const double> latency_ms_buckets();

/// Default clip-magnitude buckets: |value| decades 1 .. 65536 (FP16 range).
std::span<const double> magnitude_buckets();

}  // namespace ft2
