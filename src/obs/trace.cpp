#include "obs/trace.hpp"

#include <atomic>
#include <chrono>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/json.hpp"

namespace ft2 {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint32_t trace_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::size_t default_trace_capacity() {
  const std::size_t capacity = env_size("FT2_TRACE_CAPACITY", 4096);
  return capacity == 0 ? 4096 : capacity;
}

TraceSpan::TraceSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
  event_.name = std::move(name);
  event_.start_ns = now_ns();
  event_.thread_index = trace_thread_index();
}

TraceSpan& TraceSpan::tag(std::string key, std::string value) {
  if (tracer_ != nullptr) {
    event_.tags.emplace_back(std::move(key), std::move(value));
  }
  return *this;
}

void TraceSpan::end() {
  if (tracer_ == nullptr) return;
  event_.end_ns = now_ns();
  tracer_->record(std::move(event_));
  tracer_ = nullptr;
}

Tracer::Tracer(std::size_t capacity, bool enabled)
    : capacity_(capacity), enabled_(enabled) {
  FT2_CHECK_MSG(capacity_ >= 1, "tracer capacity must be at least 1");
  ring_.reserve(capacity_);
}

TraceSpan Tracer::span(std::string name) {
  if (!enabled_) return TraceSpan();
  return TraceSpan(this, std::move(name));
}

void Tracer::instant(std::string name,
                     std::vector<std::pair<std::string, std::string>> tags) {
  if (!enabled_) return;
  TraceEvent event;
  event.name = std::move(name);
  event.start_ns = event.end_ns = now_ns();
  event.thread_index = trace_thread_index();
  event.tags = std::move(tags);
  record(std::move(event));
}

void Tracer::record(TraceEvent event) {
  std::lock_guard lock(mutex_);
  event.seq = recorded_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    dropped_counter_.inc();
  }
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void Tracer::bind_metrics(MetricsRegistry* metrics) {
  std::lock_guard lock(mutex_);
  dropped_counter_ = metrics == nullptr ? Counter()
                                        : metrics->counter("trace.dropped");
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard lock(mutex_);
  return recorded_;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

Json Tracer::to_json() const {
  Json array = Json::array();
  for (const TraceEvent& event : events()) {
    Json entry = Json::object();
    entry["name"] = event.name;
    entry["seq"] = event.seq;
    entry["thread"] = static_cast<std::size_t>(event.thread_index);
    entry["start_ns"] = static_cast<double>(event.start_ns);
    entry["end_ns"] = static_cast<double>(event.end_ns);
    entry["dur_ms"] = event.duration_ms();
    if (!event.tags.empty()) {
      Json tags = Json::object();
      for (const auto& [k, v] : event.tags) tags[k] = v;
      entry["tags"] = std::move(tags);
    }
    array.push_back(std::move(entry));
  }
  return array;
}

}  // namespace ft2
