#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace ft2 {

namespace detail_obs {

std::size_t stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
  return index;
}

namespace {

/// CAS-add a double stored as uint64 bits (relaxed; sums are only read by
/// snapshot, which needs no ordering beyond per-value atomicity).
void add_double_bits(std::atomic<std::uint64_t>& bits, double x) {
  std::uint64_t old_bits = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      old_bits, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old_bits) + x),
      std::memory_order_relaxed)) {
  }
}

double sum_double_stripes(const std::array<Stripe, kMetricStripes>& stripes) {
  double total = 0.0;
  for (const Stripe& s : stripes) {
    total += std::bit_cast<double>(s.value.load(std::memory_order_relaxed));
  }
  return total;
}

std::uint64_t sum_stripes(const std::array<Stripe, kMetricStripes>& stripes) {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace

std::uint64_t CounterCell::sum() const { return sum_stripes(stripes); }

void HistogramCell::add(double x) {
  if (std::isnan(x)) {
    nan_counts[stripe_index()].value.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // First bucket with upper >= x; everything above the last bound goes to
  // the trailing overflow bucket.
  const std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(uppers.begin(), uppers.end(), x) -
                               uppers.begin());
  const std::size_t stripe = stripe_index();
  counts[stripe * n_buckets() + bucket].value.fetch_add(
      1, std::memory_order_relaxed);
  add_double_bits(sums[stripe].value, x);
}

void HistogramCell::add_prebucketed(
    std::span<const std::uint64_t> bucket_counts, double sum) {
  FT2_CHECK_MSG(bucket_counts.size() == n_buckets(),
                "pre-bucketed counts must match the histogram's buckets");
  const std::size_t stripe = stripe_index();
  for (std::size_t b = 0; b < bucket_counts.size(); ++b) {
    if (bucket_counts[b] != 0) {
      counts[stripe * n_buckets() + b].value.fetch_add(
          bucket_counts[b], std::memory_order_relaxed);
    }
  }
  if (sum != 0.0) add_double_bits(sums[stripe].value, sum);
}

}  // namespace detail_obs

Counter MetricsRegistry::counter(std::string_view name) {
  FT2_CHECK_MSG(!name.empty(), "metric name must not be empty");
  std::lock_guard lock(mutex_);
  for (const auto& cell : counters_) {
    if (cell->name == name) return Counter(cell.get());
  }
  counters_.push_back(std::make_unique<detail_obs::CounterCell>());
  counters_.back()->name = std::string(name);
  return Counter(counters_.back().get());
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  FT2_CHECK_MSG(!name.empty(), "metric name must not be empty");
  std::lock_guard lock(mutex_);
  for (const auto& cell : gauges_) {
    if (cell->name == name) return Gauge(cell.get());
  }
  gauges_.push_back(std::make_unique<detail_obs::GaugeCell>());
  gauges_.back()->name = std::string(name);
  return Gauge(gauges_.back().get());
}

HistogramMetric MetricsRegistry::histogram(std::string_view name,
                                           std::span<const double> uppers) {
  FT2_CHECK_MSG(!name.empty(), "metric name must not be empty");
  FT2_CHECK_MSG(!uppers.empty(), "histogram " << name << " needs buckets");
  for (std::size_t i = 1; i < uppers.size(); ++i) {
    FT2_CHECK_MSG(uppers[i - 1] < uppers[i],
                  "histogram " << name << " buckets must ascend");
  }
  std::lock_guard lock(mutex_);
  for (const auto& cell : histograms_) {
    if (cell->name == name) {
      FT2_CHECK_MSG(cell->uppers.size() == uppers.size() &&
                        std::equal(uppers.begin(), uppers.end(),
                                   cell->uppers.begin()),
                    "histogram " << name
                                 << " re-registered with different buckets");
      return HistogramMetric(cell.get());
    }
  }
  auto cell = std::make_unique<detail_obs::HistogramCell>();
  cell->name = std::string(name);
  cell->uppers.assign(uppers.begin(), uppers.end());
  cell->counts =
      std::vector<detail_obs::Stripe>(kMetricStripes * cell->n_buckets());
  histograms_.push_back(std::move(cell));
  return HistogramMetric(histograms_.back().get());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  for (const auto& cell : counters_) {
    snap.counters.push_back({cell->name, cell->sum()});
  }
  for (const auto& cell : gauges_) {
    snap.gauges.push_back(
        {cell->name, cell->value.load(std::memory_order_relaxed)});
  }
  for (const auto& cell : histograms_) {
    MetricsSnapshot::HistogramValue h;
    h.name = cell->name;
    h.uppers = cell->uppers;
    h.counts.assign(cell->n_buckets(), 0);
    for (std::size_t s = 0; s < kMetricStripes; ++s) {
      for (std::size_t b = 0; b < cell->n_buckets(); ++b) {
        h.counts[b] += cell->counts[s * cell->n_buckets() + b].value.load(
            std::memory_order_relaxed);
      }
    }
    for (std::uint64_t c : h.counts) h.count += c;
    h.nan_count = detail_obs::sum_stripes(cell->nan_counts);
    h.sum = detail_obs::sum_double_stripes(cell->sums);
    snap.histograms.push_back(std::move(h));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& cell : counters_) {
    for (auto& s : cell->stripes) s.value.store(0, std::memory_order_relaxed);
  }
  for (const auto& cell : gauges_) {
    cell->value.store(0.0, std::memory_order_relaxed);
  }
  for (const auto& cell : histograms_) {
    for (auto& s : cell->counts) s.value.store(0, std::memory_order_relaxed);
    for (auto& s : cell->nan_counts) {
      s.value.store(0, std::memory_order_relaxed);
    }
    for (auto& s : cell->sums) s.value.store(0, std::memory_order_relaxed);
  }
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  FT2_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> uppers(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i, v *= factor) uppers[i] = v;
  return uppers;
}

std::span<const double> latency_ms_buckets() {
  static const std::vector<double> buckets =
      exponential_buckets(0.05, 2.0, 20);  // 0.05ms .. ~26s
  return buckets;
}

std::span<const double> magnitude_buckets() {
  static const std::vector<double> buckets =
      exponential_buckets(1.0, 4.0, 9);  // 1 .. 65536 (past FP16 max)
  return buckets;
}

double MetricsSnapshot::HistogramValue::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (static_cast<double>(cumulative) >= target && counts[b] > 0) {
      // Interpolate inside the bucket; the overflow bucket reports its
      // lower bound (no finite upper edge to interpolate toward).
      const double lo = b == 0 ? 0.0 : uppers[b - 1];
      if (b >= uppers.size()) return lo;
      const double frac =
          1.0 - (static_cast<double>(cumulative) - target) /
                    static_cast<double>(counts[b]);
      return lo + frac * (uppers[b] - lo);
    }
  }
  return uppers.empty() ? 0.0 : uppers.back();
}

const MetricsSnapshot::CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::find_gauge(
    std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const CounterValue* c = find_counter(name);
  return c == nullptr ? 0 : c->value;
}

Json MetricsSnapshot::to_json() const {
  Json doc = Json::object();
  Json& counters_json = (doc["counters"] = Json::object());
  for (const auto& c : counters) counters_json[c.name] = c.value;
  Json& gauges_json = (doc["gauges"] = Json::object());
  for (const auto& g : gauges) gauges_json[g.name] = g.value;
  Json& hists_json = (doc["histograms"] = Json::object());
  for (const auto& h : histograms) {
    Json entry = Json::object();
    Json uppers = Json::array();
    for (double u : h.uppers) uppers.push_back(u);
    entry["bucket_uppers"] = std::move(uppers);
    Json counts = Json::array();
    for (std::uint64_t c : h.counts) counts.push_back(c);
    entry["bucket_counts"] = std::move(counts);
    entry["count"] = h.count;
    entry["sum"] = h.sum;
    entry["mean"] = h.mean();
    entry["p50"] = h.quantile(0.5);
    entry["p95"] = h.quantile(0.95);
    entry["p99"] = h.quantile(0.99);
    entry["nan_count"] = h.nan_count;
    hists_json[h.name] = std::move(entry);
  }
  return doc;
}

MetricsSnapshot MetricsSnapshot::from_json(const Json& doc) {
  FT2_CHECK(doc.is_object());
  MetricsSnapshot snap;
  if (const Json* counters = doc.find("counters")) {
    for (const std::string& name : counters->keys()) {
      snap.counters.push_back(
          {name, static_cast<std::uint64_t>(counters->at(name).as_double())});
    }
  }
  // The writer emits non-finite doubles as null (JSON has no inf/nan);
  // map those back to NaN rather than failing the parse.
  auto as_double_or_nan = [](const Json& v) {
    return v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                       : v.as_double();
  };
  if (const Json* gauges = doc.find("gauges")) {
    for (const std::string& name : gauges->keys()) {
      snap.gauges.push_back({name, as_double_or_nan(gauges->at(name))});
    }
  }
  if (const Json* hists = doc.find("histograms")) {
    for (const std::string& name : hists->keys()) {
      const Json& entry = hists->at(name);
      HistogramValue h;
      h.name = name;
      const Json& uppers = entry.at("bucket_uppers");
      for (std::size_t i = 0; i < uppers.size(); ++i) {
        h.uppers.push_back(uppers.at(i).as_double());
      }
      const Json& counts = entry.at("bucket_counts");
      for (std::size_t i = 0; i < counts.size(); ++i) {
        h.counts.push_back(
            static_cast<std::uint64_t>(counts.at(i).as_double()));
      }
      FT2_CHECK(h.counts.size() == h.uppers.size() + 1);
      h.count = static_cast<std::uint64_t>(entry.at("count").as_double());
      h.sum = as_double_or_nan(entry.at("sum"));
      h.nan_count =
          static_cast<std::uint64_t>(entry.at("nan_count").as_double());
      snap.histograms.push_back(std::move(h));
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

Table MetricsSnapshot::to_table() const {
  Table table({"metric", "type", "value", "mean", "p50", "p95", "p99"});
  for (const auto& c : counters) {
    table.begin_row().cell(c.name).cell("counter").count(c.value).cell("").cell(
        "").cell("").cell("");
  }
  for (const auto& g : gauges) {
    table.begin_row().cell(g.name).cell("gauge").num(g.value, 2).cell("").cell(
        "").cell("").cell("");
  }
  for (const auto& h : histograms) {
    table.begin_row()
        .cell(h.name)
        .cell("histogram")
        .count(h.count)
        .num(h.mean(), 3)
        .num(h.quantile(0.5), 3)
        .num(h.quantile(0.95), 3)
        .num(h.quantile(0.99), 3);
  }
  return table;
}

}  // namespace ft2
