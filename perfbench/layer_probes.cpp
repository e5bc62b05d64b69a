// Per-layer probes for the traced run: direct calls into the public nn,
// tensor and protect functions at the shapes the workloads run, each timed
// call wrapped in a span. Probes are identical on every workload, so their
// numbers move only when the layer itself changes.
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nn/hooks.hpp"
#include "protect/scheme.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kReps = 5;
constexpr std::size_t kDecodeSteps = 48;
constexpr std::size_t kServePromptLen = 32;     ///< context before decode
constexpr std::size_t kCampaignPromptLen = 64;  ///< campaign-ft2 prompts
constexpr std::size_t kCampaignGenTokens = 16;

/// A hook that does nothing: placed first in a chain it keeps the ft2 hook
/// off the fused epilogue, the campaign's injector-first layout.
class NoopHook final : public ft2::OutputHook {
 public:
  void on_output(const ft2::HookContext&, std::span<float>) override {}
};

enum class Chain { kEmpty, kFt2First, kFt2BehindNoop };

/// One decoding sequence with its own cache and hook chain.
struct Sequence {
  explicit Sequence(ft2::KvCache c) : cache(std::move(c)) {}

  ft2::KvCache cache;
  ft2::HookChain chain;
  NoopHook noop;
  std::unique_ptr<ft2::ProtectionHook> hook;
  std::vector<ft2::HookRegistration> registrations;
  ft2::GenerationScope scope;
  std::vector<float> logits;
  int token = 0;
};

class Probe {
 public:
  Probe(const ft2::TransformerLM& model, const RunContext& ctx)
      : model_(model), ctx_(ctx), packed_(model),
        exec_{true, false, ctx.pool}, ws_(model.config(), 16),
        spec_(ft2::scheme_spec(ft2::SchemeKind::kFt2, model.config())) {}

  /// One decode of kDecodeSteps forward_batch calls at batch `b` under
  /// `layout`; appends each call's time per row, in µs, to `per_row`.
  void batch_us_per_row(std::size_t b, Chain layout,
                        std::vector<double>& per_row) {
    std::vector<std::unique_ptr<Sequence>> seqs = prefill(b, layout);
    std::vector<ft2::DecodeSlot> slots(b);
    for (std::size_t step = 0; step < kDecodeSteps; ++step) {
      for (std::size_t i = 0; i < b; ++i) {
        Sequence& s = *seqs[i];
        slots[i] = ft2::DecodeSlot{s.token, s.cache.length(), &s.cache,
                                   &s.chain, s.logits};
      }
      const Clock::time_point t0 = Clock::now();
      {
        ft2::TraceSpan span = ctx_.tracer->span("nn.forward_batch");
        model_.forward_batch(slots, exec_, ws_, &packed_);
      }
      per_row.push_back(ms_between(t0, Clock::now()) * 1e3 /
                        static_cast<double>(b));
      for (auto& s : seqs) s->token = static_cast<int>(ft2::argmax(s->logits));
    }
  }

  /// Median forward_span time per position for a `n`-token prompt, in µs.
  double span_us_per_pos(std::size_t n) {
    std::vector<double> per_pos;
    ft2::KvCache cache = model_.make_cache();
    const ft2::HookChain chain;
    const std::vector<int> prompt = tokens(n);
    for (std::size_t rep = 0; rep < kReps * 4; ++rep) {
      cache.reset();
      const Clock::time_point t0 = Clock::now();
      {
        ft2::TraceSpan span = ctx_.tracer->span("nn.forward_span");
        model_.forward_span(prompt, 0, cache, chain, exec_, true, ws_, {});
      }
      per_pos.push_back(ms_between(t0, Clock::now()) * 1e3 /
                        static_cast<double>(n));
    }
    return median(std::move(per_pos));
  }

  /// Median forward_position time over a campaign-shaped decode, in µs.
  double position_us() {
    std::vector<double> per_call;
    const ft2::HookChain chain;
    const std::vector<int> prompt = tokens(kCampaignPromptLen);
    std::vector<float> logits(model_.config().vocab_size);
    ft2::KvCache cache = model_.make_cache();
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      cache.reset();
      model_.forward_span(prompt, 0, cache, chain, exec_, true, ws_, logits);
      for (std::size_t step = 0; step + 1 < kCampaignGenTokens; ++step) {
        const int token = static_cast<int>(ft2::argmax(logits));
        const Clock::time_point t0 = Clock::now();
        {
          ft2::TraceSpan span = ctx_.tracer->span("nn.forward_position");
          model_.forward_position(token, cache.length(), cache, chain, exec_,
                                  false, ws_, logits);
        }
        per_call.push_back(ms_between(t0, Clock::now()) * 1e3);
      }
    }
    return median(std::move(per_call));
  }

 private:
  std::vector<int> tokens(std::size_t n) {
    std::vector<int> out(n);
    for (int& t : out) {
      t = static_cast<int>(rng_.uniform(model_.config().vocab_size));
    }
    return out;
  }

  /// `b` sequences with `layout` chains, each past its first-token phase
  /// (so ft2 hooks hold online bounds) and holding its first decode token.
  std::vector<std::unique_ptr<Sequence>> prefill(std::size_t b, Chain layout) {
    std::vector<std::unique_ptr<Sequence>> seqs;
    for (std::size_t i = 0; i < b; ++i) {
      auto s = std::make_unique<Sequence>(model_.make_cache());
      s->logits.assign(model_.config().vocab_size, 0.0f);
      if (layout == Chain::kFt2BehindNoop) {
        s->registrations.push_back(s->chain.add(s->noop));
      }
      if (layout != Chain::kEmpty) {
        s->hook = std::make_unique<ft2::ProtectionHook>(
            model_.config(), spec_, ft2::BoundStore{}, &registry_);
        s->registrations.push_back(s->chain.add(*s->hook));
      }
      s->scope = ft2::GenerationScope(s->chain);
      model_.forward_span(tokens(kServePromptLen), 0, s->cache, s->chain,
                          exec_, true, ws_, s->logits);
      s->token = static_cast<int>(ft2::argmax(s->logits));
      seqs.push_back(std::move(s));
    }
    return seqs;
  }

  const ft2::TransformerLM& model_;
  const RunContext& ctx_;
  ft2::PackedDecodeWeights packed_;
  ft2::ExecConfig exec_;
  ft2::Workspace ws_;
  ft2::SchemeSpec spec_;
  ft2::MetricsRegistry registry_;
  ft2::Xoshiro256 rng_{0x9B0BE};
};

/// Median of `batches` timings of `calls` back-to-back calls of `fn`, as
/// `work_per_call` units per second.
template <typename Fn>
double rate_per_s(const RunContext& ctx, const char* span_name,
                  std::size_t calls, double work_per_call, Fn&& fn) {
  std::vector<double> rates;
  for (std::size_t batch = 0; batch < 2 * kReps; ++batch) {
    const Clock::time_point t0 = Clock::now();
    {
      ft2::TraceSpan span = ctx.tracer->span(span_name);
      for (std::size_t c = 0; c < calls; ++c) fn();
    }
    const double s = ms_between(t0, Clock::now()) / 1e3;
    rates.push_back(work_per_call * static_cast<double>(calls) / s);
  }
  return median(std::move(rates));
}

ft2::Tensor random_tensor(std::size_t rows, std::size_t cols,
                          ft2::Xoshiro256& rng) {
  ft2::Tensor t({rows, cols});
  for (float& v : t.span()) v = rng.uniform_float(-0.5f, 0.5f);
  return t;
}

}  // namespace

void probe_layers(const ft2::TransformerLM& model, const RunContext& ctx,
                  MetricMap& out) {
  Probe probe(model, ctx);
  // protect: the b16 decode with a fresh ft2 hook first in every chain
  // (fused epilogue) and behind a no-op hook (hook path), against empty
  // chains. The layouts alternate within every repetition: host speed
  // drifts by tens of percent over seconds, which back-to-back blocks of
  // one layout would read as protection overhead.
  std::vector<double> b1, empty, fused, unfused;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    probe.batch_us_per_row(1, Chain::kEmpty, b1);
    probe.batch_us_per_row(16, Chain::kEmpty, empty);
    probe.batch_us_per_row(16, Chain::kFt2First, fused);
    probe.batch_us_per_row(16, Chain::kFt2BehindNoop, unfused);
  }
  const double empty_b16 = median(empty);
  out["nn.forward_batch_us_per_row.b1"] = {median(b1), "us"};
  out["nn.forward_batch_us_per_row.b16"] = {empty_b16, "us"};
  out["nn.forward_span_us_per_pos.c64"] = {probe.span_us_per_pos(64), "us"};
  out["nn.forward_position_us"] = {probe.position_us(), "us"};
  out["protect.fused_overhead_pct"] = {
      (median(fused) / empty_b16 - 1.0) * 100.0, "%"};
  out["protect.hook_overhead_pct"] = {
      (median(unfused) / empty_b16 - 1.0) * 100.0, "%"};

  // tensor: rates use operation counts and bytes computed from the tensor
  // shapes (2*M*N*K flops; x, W and y each touched once), not counters. The
  // shape is the MLP up projection, K = d_model, N = d_ff.
  const std::size_t k = model.config().d_model;
  const std::size_t n = model.config().d_ff;
  ft2::Xoshiro256 rng(0x7E45);
  const ft2::Tensor x = random_tensor(64, k, rng);
  const ft2::Tensor w = random_tensor(n, k, rng);
  ft2::Tensor y({64, n});
  const ft2::PackedLinear packed(w, {});
  const auto flops = [&](std::size_t m) {
    return 2.0 * static_cast<double>(m * n * k);
  };
  const double packed_b16 = rate_per_s(ctx, "tensor.linear_forward_span_packed",
                                       50, flops(16), [&] {
    ft2::linear_forward_span_packed(x, 16, packed, y, *ctx.pool);
  });
  out["tensor.packed_gemm_gflops.b16"] = {packed_b16 / 1e9, "GFLOP/s"};
  out["tensor.packed_gemm_gbytes_s.b16"] = {
      packed_b16 / flops(16) *
          static_cast<double>((16 * k + n * k + 16 * n) * sizeof(float)) / 1e9,
      "GB/s"};
  out["tensor.span_gemm_gflops.r64"] = {
      rate_per_s(ctx, "tensor.linear_forward_span", 20, flops(64),
                 [&] {
                   ft2::linear_forward_span(x, 64, w, {}, y, false, *ctx.pool);
                 }) /
          1e9,
      "GFLOP/s"};
  std::vector<float> v(16 * n);
  for (float& e : v) e = rng.uniform_float(-4.0f, 4.0f);
  out["tensor.quantize_gelem_s"] = {
      rate_per_s(ctx, "tensor.quantize_span_f16", 200,
                 static_cast<double>(v.size()),
                 [&] { ft2::quantize_span_f16(v); }) /
          1e9,
      "Gelem/s"};
}

}  // namespace perfbench
