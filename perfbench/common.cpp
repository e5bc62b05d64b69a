#include "common.hpp"

#include <algorithm>

#include "data/vocab.hpp"
#include "nn/weights.hpp"
#include "serve/load_gen.hpp"

namespace perfbench {

ft2::TransformerLM make_model() {
  ft2::ModelConfig c;
  c.name = "perfbench-llama";
  c.arch = ft2::ArchFamily::kLlama;
  c.norm = ft2::NormKind::kRmsNorm;
  c.position = ft2::PositionKind::kRotary;
  c.activation = ft2::Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = ft2::Vocab::shared().size();
  c.d_model = 128;
  c.n_heads = 8;
  c.n_blocks = 4;
  c.d_ff = 384;
  c.max_seq = 256;
  ft2::Xoshiro256 rng(2026);
  return ft2::TransformerLM(c, ft2::init_weights(c, rng));
}

double percentile(std::vector<double> values, double p) {
  return ft2::load_percentile(std::move(values), p);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::map<std::string, SpanTotals> summarize_spans(
    std::vector<ft2::TraceEvent> events) {
  // Parents first: earlier start, and the longer span on equal starts.
  std::sort(events.begin(), events.end(),
            [](const ft2::TraceEvent& a, const ft2::TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  std::map<std::string, SpanTotals> out;
  struct Open {
    const ft2::TraceEvent* event;
    std::uint64_t child_ns;
  };
  std::vector<Open> stack;
  const auto close = [&out](const Open& o) {
    const std::uint64_t dur = o.event->end_ns - o.event->start_ns;
    SpanTotals& t = out[o.event->name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - std::min(dur, o.child_ns)) / 1e6;
    t.durations_ms.push_back(static_cast<double>(dur) / 1e6);
  };
  for (const ft2::TraceEvent& e : events) {
    while (!stack.empty() && stack.back().event->end_ns <= e.start_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      stack.back().child_ns += std::min(e.end_ns, stack.back().event->end_ns) -
                               e.start_ns;
    }
    stack.push_back(Open{&e, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

std::uint64_t counter_sum(const ft2::MetricsSnapshot& snap,
                          const std::string& prefix) {
  std::uint64_t sum = 0;
  for (const auto& c : snap.counters) {
    if (c.name.starts_with(prefix)) sum += c.value;
  }
  return sum;
}

}  // namespace perfbench
