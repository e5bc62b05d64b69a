#include "obs/catalog.hpp"

#include <algorithm>
#include <cctype>

#include "nn/layer_kind.hpp"

namespace ft2 {

namespace {

struct Template {
  const char* name;  ///< may contain one `<KIND>` or `<OUTCOME>` placeholder
  const char* kind;
  const char* help;
};

// The un-expanded registry. Every `counter(...)` / `gauge(...)` /
// `histogram(...)` / `span(...)` call site in src/ must have a line here
// (tests/obs/catalog_test.cpp enforces the metric side against a live run).
constexpr Template kTemplates[] = {
    // serve/serve_engine.cpp
    {"serve.requests.submitted", "counter", "requests accepted by submit()"},
    {"serve.requests.completed", "counter", "requests finished"},
    {"serve.tokens.generated", "counter", "decode tokens emitted"},
    {"serve.prefill.positions", "counter", "prompt positions prefilled"},
    {"serve.decode.steps", "counter", "batched decode steps"},
    {"serve.decode.rows", "counter", "request-rows across decode steps"},
    {"serve.queue.wait_ms", "histogram", "submit-to-prefill queue wait"},
    {"serve.prefill.latency_ms", "histogram", "per-request prefill latency"},
    {"serve.decode.step_ms", "histogram", "batched decode step latency"},
    {"serve.request.decode_ms", "histogram",
     "per-request decode wall time"},
    {"serve.rejected", "counter", "submits refused by max_queue_depth"},
    {"serve.cancelled", "counter", "requests cancelled before finishing"},
    {"serve.preemptions", "counter",
     "requests evicted back to the queue under KV pool pressure"},
    {"serve.prefix.shared_rows", "counter",
     "prompt positions adopted from a shared prefix instead of computed"},
    {"serve.request.ttft_ms", "histogram",
     "submit-to-first-token latency per request"},
    {"serve.token.gap_ms", "histogram",
     "latency between consecutive tokens of one request"},
    {"serve.batch.occupancy", "gauge", "active rows in the decode batch"},
    {"serve.kv.blocks_used", "gauge", "KV pool blocks currently mapped"},
    {"serve.kv.blocks_free", "gauge", "KV pool blocks on the free list"},
    {"serve.kv.bytes_resident", "gauge", "bytes of mapped KV pool blocks"},
    {"serve.kernel_tier", "gauge",
     "GEMM dispatch tier the engine runs on (0=sse 1=avx2)"},
    // protect/scheme.cpp
    {"protect.checked.<KIND>", "counter", "values range-checked"},
    {"protect.nan.<KIND>", "counter", "NaNs corrected"},
    {"protect.oob.<KIND>", "counter", "out-of-bound values clipped"},
    {"protect.clip_magnitude.<KIND>", "histogram",
     "|original| of clipped values"},
    // protect/abft_linear.cpp
    {"protect.checksum_mismatch.<KIND>", "counter",
     "rows whose column-sum checksum missed its calibrated band"},
    // protect/adaptive.cpp
    {"protect.adapt.<KIND>", "counter",
     "online bound re-profiles triggered by low headroom"},
    // protect/drift.cpp
    {"protect.headroom.<KIND>", "histogram",
     "per-dispatch fraction of the enforced bound left unused"},
    {"protect.headroom.near_clip_frac", "gauge",
     "fraction of dispatches within the near-clip threshold"},
    // fi/campaign.cpp
    {"campaign.trials", "counter", "fault-injection trials completed"},
    {"campaign.outcome.<OUTCOME>", "counter", "trials per outcome"},
    {"campaign.site.<KIND>", "counter", "trials per injected layer kind"},
    {"campaign.trial_ms", "histogram", "wall time per trial"},
    {"campaign.prefix.hit", "counter",
     "trials forked from the fault-free prefix snapshot"},
    {"campaign.prefix.miss", "counter",
     "trials that fell back to a full run"},
    {"campaign.prefix.rejoined", "counter",
     "forked trials ended early, bit-identical to the recording again"},
    {"campaign.prefix.reused_positions", "histogram",
     "positions skipped per forked trial (prefix plus rejoined tail)"},
    // fi/shard.cpp
    {"campaign.shard.resumed", "counter",
     "trials recovered from an existing shard log on resume"},
    {"campaign.shard.executed", "counter",
     "trials actually run by this shard invocation"},
    {"campaign.shard.torn_tail", "counter",
     "torn shard-log tails truncated during resume"},
    // fi/shard.cpp (ShardProgressBoard — parent-side merged view)
    {"campaign.progress.done", "gauge",
     "trials finished across all shards (merged telemetry frames)"},
    {"campaign.progress.total", "gauge", "trials planned across all shards"},
    {"campaign.progress.trials_per_s", "gauge",
     "aggregate completion rate since the first telemetry frame"},
    {"campaign.progress.eta_s", "gauge",
     "estimated seconds until all shards finish (-1 before a rate exists)"},
    {"campaign.shard.progress.<N>", "gauge",
     "trials finished by shard N (merged telemetry frames)"},
    // obs/trace.cpp
    {"trace.dropped", "counter",
     "spans overwritten on Tracer ring wrap-around"},
    // trace span names (Tracer, not MetricsRegistry)
    {"serve.prefill", "span", "one request's prefill"},
    {"serve.decode_step", "span", "one batched decode step"},
    {"campaign.trial", "span", "one fault-injection trial"},
    {"campaign.shard", "span", "one campaign shard run (resume + range)"},
};

constexpr const char* kOutcomeNames[] = {"masked_identical", "masked_semantic",
                                         "sdc", "not_injected"};

std::vector<CatalogEntry> build_catalog() {
  std::vector<CatalogEntry> entries;
  for (const Template& t : kTemplates) {
    const std::string name = t.name;
    const std::size_t kind_pos = name.find("<KIND>");
    const std::size_t outcome_pos = name.find("<OUTCOME>");
    if (kind_pos != std::string::npos) {
      for (std::size_t k = 0; k < kLayerKindCount; ++k) {
        std::string expanded = name;
        expanded.replace(kind_pos, 6,
                         layer_kind_name(static_cast<LayerKind>(k)));
        entries.push_back({std::move(expanded), t.kind, t.help});
      }
    } else if (outcome_pos != std::string::npos) {
      for (const char* outcome : kOutcomeNames) {
        std::string expanded = name;
        expanded.replace(outcome_pos, 9, outcome);
        entries.push_back({std::move(expanded), t.kind, t.help});
      }
    } else {
      entries.push_back({name, t.kind, t.help});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CatalogEntry& a, const CatalogEntry& b) {
              return a.name < b.name;
            });
  return entries;
}

}  // namespace

const std::vector<CatalogEntry>& metric_catalog() {
  static const std::vector<CatalogEntry> catalog = build_catalog();
  return catalog;
}

std::vector<std::string> all_metric_names() {
  std::vector<std::string> names;
  for (const CatalogEntry& e : metric_catalog()) names.push_back(e.name);
  return names;
}

std::vector<std::string> metric_template_names() {
  std::vector<std::string> names;
  for (const Template& t : kTemplates) names.emplace_back(t.name);
  std::sort(names.begin(), names.end());
  return names;
}

const CatalogEntry* find_catalog_entry(std::string_view name) {
  for (const CatalogEntry& e : metric_catalog()) {
    if (e.name == name) return &e;
  }
  // Numeric wildcard: foo.<digits> matches a cataloged foo.<N>.
  const std::size_t dot = name.rfind('.');
  if (dot != std::string_view::npos && dot + 1 < name.size()) {
    const std::string_view tail = name.substr(dot + 1);
    const bool all_digits =
        std::all_of(tail.begin(), tail.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; });
    if (all_digits) {
      const std::string wildcard = std::string(name.substr(0, dot + 1)) + "<N>";
      for (const CatalogEntry& e : metric_catalog()) {
        if (e.name == wildcard) return &e;
      }
    }
  }
  return nullptr;
}

bool is_cataloged_metric(std::string_view name) {
  return find_catalog_entry(name) != nullptr;
}

}  // namespace ft2
