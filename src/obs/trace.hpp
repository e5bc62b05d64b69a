// Lightweight structured event tracing: bounded ring buffer of spans.
//
// A Tracer records named spans (start/stop steady-clock timestamps plus
// small key/value tag lists) into a fixed-capacity ring buffer — when full,
// the oldest events are overwritten, so tracing a long-running server is
// always O(capacity) memory. Recording takes a mutex (span granularity is
// a request or a batched decode step, never a per-value hot loop).
//
// Zero-cost when disabled: span() checks one bool and returns an inert
// TraceSpan without reading the clock; the destructor is a null check.
// There is no process-wide tracer: spans go to the Tracer a caller passes
// in its ObsSinks, and trace_span() treats a null tracer as off.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ft2 {

class Json;

/// Ring capacity for the CLI's --trace-out tracers: the FT2_TRACE_CAPACITY
/// environment variable, or 4096 when unset/zero.
std::size_t default_trace_capacity();

/// Dense index of the calling thread among all threads that ever traced
/// (assigned on first use, stable for the thread's lifetime).
std::uint32_t trace_thread_index();

/// One finished span. Timestamps are steady-clock nanoseconds (comparable
/// within a process, not wall-clock). `seq` increases monotonically with
/// recording order, surviving ring wrap-around.
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t seq = 0;
  /// Dense per-process index of the thread that started the span (first
  /// tracing thread = 0, second = 1, ...). Stable for a thread's lifetime;
  /// the Chrome exporter uses it as the fallback tid.
  std::uint32_t thread_index = 0;
  std::vector<std::pair<std::string, std::string>> tags;

  double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

class Tracer;

/// RAII span: started by Tracer::span, recorded when destroyed (or on an
/// explicit end()). Inert when the tracer was disabled at start time.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceSpan&& other) noexcept
      : tracer_(other.tracer_), event_(std::move(other.event_)) {
    other.tracer_ = nullptr;
  }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    if (this != &other) {
      end();
      tracer_ = other.tracer_;
      event_ = std::move(other.event_);
      other.tracer_ = nullptr;
    }
    return *this;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { end(); }

  /// Attaches a key/value tag (no-op when inert).
  TraceSpan& tag(std::string key, std::string value);

  /// Stamps the stop time and records the span now (idempotent).
  void end();

  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  TraceSpan(Tracer* tracer, std::string name);

  Tracer* tracer_ = nullptr;
  TraceEvent event_;
};

/// Bounded span recorder. Thread-safe; spans may end on any thread.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096, bool enabled = false);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::size_t capacity() const { return capacity_; }

  /// Starts a span (inert — no clock read, no allocation — when disabled).
  [[nodiscard]] TraceSpan span(std::string name);

  /// Records an instant event (start == end).
  void instant(std::string name,
               std::vector<std::pair<std::string, std::string>> tags = {});

  /// Events currently in the buffer, oldest first.
  std::vector<TraceEvent> events() const;

  /// Number of buffered events (<= capacity).
  std::size_t size() const;

  /// Total events ever recorded (counts those evicted by wrap-around).
  std::uint64_t recorded() const;

  /// Spans overwritten (lost) to ring wrap-around since construction /
  /// the last clear(). recorded() - size() while the ring has never been
  /// cleared; tracked separately so clear() keeps the distinction.
  std::uint64_t dropped() const;

  /// Mirrors every future wrap-around drop into the cataloged
  /// `trace.dropped` counter of `metrics` (nullptr detaches). The ring
  /// still serves events; the counter makes silent span loss visible on
  /// /metrics so an operator knows a Chrome export is incomplete.
  void bind_metrics(MetricsRegistry* metrics);

  void clear();

  /// [{"name", "start_ns", "end_ns", "dur_ms", "seq", "tags": {...}}, ...]
  Json to_json() const;

 private:
  friend class TraceSpan;
  void record(TraceEvent event);

  std::size_t capacity_;
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  Counter dropped_counter_;  ///< see bind_metrics(); inert when unbound
};

/// Starts a span on `tracer`; inert when `tracer` is null (tracing off).
[[nodiscard]] inline TraceSpan trace_span(Tracer* tracer, const char* name) {
  return tracer != nullptr ? tracer->span(name) : TraceSpan{};
}

}  // namespace ft2
