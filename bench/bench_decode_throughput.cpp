// Aggregate decode throughput of the continuous-batching serve engine.
//
// Submits a batch of mixed-length prompts to a ServeEngine and compares
// aggregate decode tokens/sec against running the same requests through
// sequential InferenceSession::generate calls back to back. Every batched
// token stream is checked against the sequential output first — batching is
// bit-exact by construction, so the batch size is a pure throughput knob.
// Both sides run the model's packed k-outer GEMM tiles; the win comes from
// amortizing each weight-matrix pass over B sequences per decode step.
//
//   FT2_BENCH_DECODE_TOKENS  decode length per request  (default 64)
//   FT2_BENCH_REPS           timed repetitions, best-of (default 3)
//   FT2_BENCH_DRIFT          also measure BoundDriftMonitor overhead on the
//                            protected batched decode path (off by default)
//   FT2_BENCH_TELEMETRY      also measure serve.* metric and TelemetrySampler
//                            overhead on the batched decode path (off by
//                            default)
//
// Neither side of the main table publishes metrics: engines publish only
// to a registry they are given, and these are given none.
#include <chrono>
#include <iostream>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "obs/telemetry.hpp"
#include "protect/drift.hpp"
#include "serve/serve_engine.hpp"

using namespace ft2;

namespace {

TransformerLM bench_model() {
  // The small zoo Llama configuration (llama-sm) with random weights —
  // decode-dominated workload on the model the acceptance bar names.
  ModelConfig c;
  c.name = "bench-decode";
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 64;
  c.n_heads = 4;
  c.n_blocks = 2;
  c.d_ff = 176;
  c.max_seq = 96;
  Xoshiro256 rng(2025);
  return TransformerLM(c, init_weights(c, rng));
}

std::vector<std::vector<int>> bench_prompts(const TransformerLM& model,
                                            std::size_t n) {
  // Mixed lengths 8..16 so batched requests decode at staggered positions.
  std::vector<std::vector<int>> prompts;
  const int vocab = static_cast<int>(model.config().vocab_size);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<int> prompt = {Vocab::kBos};
    const std::size_t len = 8 + (r * 3) % 9;
    for (std::size_t i = 1; i < len; ++i) {
      prompt.push_back(static_cast<int>(r * 31 + i * 13 + 5) % vocab);
    }
    prompts.push_back(std::move(prompt));
  }
  return prompts;
}

}  // namespace

int main() {
  bench::print_header("continuous-batching decode throughput",
                      "serve engine vs sequential sessions (llama-sm size)");

  const TransformerLM model = bench_model();
  const std::size_t decode_tokens = env_size("FT2_BENCH_DECODE_TOKENS", 64);
  const std::size_t reps = env_size("FT2_BENCH_REPS", 3);

  GenerateOptions opts;
  opts.max_new_tokens = decode_tokens;
  opts.eos_token = -1;  // fixed length: every request decodes the full run

  std::cout << "model: d_model=" << model.config().d_model
            << " blocks=" << model.config().n_blocks
            << " d_ff=" << model.config().d_ff << ", " << decode_tokens
            << " decode tokens per request, best of " << reps << " runs\n\n";

  Table table({"batch", "seq ms", "batched ms", "seq tok/s", "batched tok/s",
               "speedup", "tokens"});
  bool all_match = true;
  double best_speedup_b4 = 0.0;
  for (std::size_t batch : {1u, 2u, 4u, 8u}) {
    const auto prompts = bench_prompts(model, batch);

    std::vector<GenerateResult> serial(batch);
    double seq_ms = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < batch; ++i) {
        InferenceSession session(model);
        serial[i] = session.generate(prompts[i], opts);
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (r == 0 || ms < seq_ms) seq_ms = ms;
    }

    double batched_ms = 0.0;
    bool match = true;
    for (std::size_t r = 0; r < reps; ++r) {
      ServeOptions serve_opts;
      serve_opts.max_batch = batch;
      const auto t0 = std::chrono::steady_clock::now();
      ServeEngine engine(model, serve_opts);
      std::vector<RequestId> ids;
      for (std::size_t i = 0; i < batch; ++i) {
        ids.push_back(engine.submit(prompts[i], opts));
      }
      engine.run();
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (r == 0 || ms < batched_ms) batched_ms = ms;
      for (std::size_t i = 0; i < batch; ++i) {
        match = match && engine.result(ids[i]).tokens == serial[i].tokens;
      }
    }
    all_match = all_match && match;

    const double total_tokens =
        static_cast<double>(batch) * static_cast<double>(decode_tokens);
    const double speedup = batched_ms > 0.0 ? seq_ms / batched_ms : 0.0;
    if (batch >= 4) best_speedup_b4 = std::max(best_speedup_b4, speedup);
    table.begin_row()
        .count(batch)
        .num(seq_ms, 2)
        .num(batched_ms, 2)
        .num(total_tokens / seq_ms * 1e3, 0)
        .num(total_tokens / batched_ms * 1e3, 0)
        .num(speedup, 2)
        .cell(match ? "= sequential" : "MISMATCH");
  }
  table.print(std::cout);

  if (env_flag("FT2_BENCH_DRIFT", false)) {
    // Drift-monitor overhead: FT2-protected batched decode with and
    // without a BoundDriftMonitor behind each request's protection hook.
    // The monitor is observational-only, so the outputs are identical and
    // the delta is pure monitoring cost (bar: <= 1%).
    const std::size_t batch = 4;
    const auto prompts = bench_prompts(model, batch);
    const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
    MetricsRegistry drift_registry;

    const auto timed_run = [&](bool with_drift) {
      double best_ms = 0.0;
      for (std::size_t r = 0; r < reps; ++r) {
        ServeOptions serve_opts;
        serve_opts.max_batch = batch;
        const auto t0 = std::chrono::steady_clock::now();
        ServeEngine engine(model, serve_opts);
        std::vector<ProtectionHook> hooks;
        hooks.reserve(batch);  // chains hold raw hook pointers
        std::vector<BoundDriftMonitor> monitors;
        monitors.reserve(batch);
        std::vector<HookRegistration> regs;
        regs.reserve(batch * 2);
        for (std::size_t i = 0; i < batch; ++i) {
          hooks.emplace_back(model.config(), spec, BoundStore{}, nullptr);
          const RequestId id = engine.submit(prompts[i], opts);
          regs.push_back(engine.hooks(id).add(hooks.back()));
          if (with_drift) {
            DriftMonitorOptions drift_opts;
            drift_opts.obs.metrics = &drift_registry;
            monitors.emplace_back(hooks.back(), drift_opts);
            regs.push_back(engine.hooks(id).add(monitors.back()));
          }
        }
        engine.run();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r == 0 || ms < best_ms) best_ms = ms;
      }
      return best_ms;
    };

    const double base_ms = timed_run(false);
    const double drift_ms = timed_run(true);
    const double overhead =
        base_ms > 0.0 ? (drift_ms - base_ms) / base_ms : 0.0;
    std::cout << "\ndrift-monitor overhead (protected batch=" << batch
              << "): " << base_ms << " ms -> " << drift_ms << " ms = "
              << Table::format_pct(overhead, 2) << " ("
              << (overhead <= 0.01 ? "meets" : "ABOVE")
              << " the 1% bar)\n";
  }

  if (env_flag("FT2_BENCH_TELEMETRY", false)) {
    // Metric and telemetry-sampler overhead: the batched decode run with
    // no registry, with serve.* metrics feeding a private registry, and
    // with a 100 ms TelemetrySampler snapshotting that registry in the
    // background. Metrics and the sampler only observe, so the outputs are
    // identical and each delta is pure publication / sampling cost (the
    // sampler's bar: <= 1%). The three modes alternate within each
    // repetition so drift over the run cannot favor one of them.
    const std::size_t batch = 4;
    const auto prompts = bench_prompts(model, batch);
    MetricsRegistry telemetry_registry;

    const auto timed_run = [&](MetricsRegistry* registry, bool with_sampler) {
      TelemetrySampler::Options sampler_opts;
      sampler_opts.interval_ms = 100;  // 10x the default scrape rate
      TelemetrySampler sampler(&telemetry_registry, sampler_opts);
      if (with_sampler) sampler.start();
      ServeOptions serve_opts;
      serve_opts.max_batch = batch;
      serve_opts.obs.metrics = registry;
      const auto t0 = std::chrono::steady_clock::now();
      ServeEngine engine(model, serve_opts);
      for (std::size_t i = 0; i < batch; ++i) {
        engine.submit(prompts[i], opts);
      }
      engine.run();
      const auto t1 = std::chrono::steady_clock::now();
      sampler.stop();
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };

    double bare_ms = 0.0;
    double base_ms = 0.0;
    double sampled_ms = 0.0;
    const auto keep_best = [](double& best, double ms, std::size_t r) {
      if (r == 0 || ms < best) best = ms;
    };
    for (std::size_t r = 0; r < reps; ++r) {
      keep_best(bare_ms, timed_run(nullptr, false), r);
      keep_best(base_ms, timed_run(&telemetry_registry, false), r);
      keep_best(sampled_ms, timed_run(&telemetry_registry, true), r);
    }
    const double metric_overhead =
        bare_ms > 0.0 ? (base_ms - bare_ms) / bare_ms : 0.0;
    std::cout << "\nserve-metric overhead (batch=" << batch << "): " << bare_ms
              << " ms -> " << base_ms << " ms = "
              << Table::format_pct(metric_overhead, 2) << "\n";
    const double overhead =
        base_ms > 0.0 ? (sampled_ms - base_ms) / base_ms : 0.0;
    std::cout << "telemetry-sampler overhead (batch=" << batch
              << ", 100ms interval): " << base_ms << " ms -> " << sampled_ms
              << " ms = " << Table::format_pct(overhead, 2) << " ("
              << (overhead <= 0.01 ? "meets" : "ABOVE")
              << " the 1% bar)\n";
  }

  std::cout << "\ntokens bit-exact across all batch sizes: "
            << (all_match ? "yes" : "NO — BUG") << "\n";
  std::cout << "best aggregate decode speedup at batch >= 4: "
            << best_speedup_b4 << "x ("
            << (best_speedup_b4 >= 1.5 ? "meets" : "BELOW")
            << " the 1.5x acceptance bar)\n";
  return all_match && best_speedup_b4 >= 1.5 ? 0 : 1;
}
