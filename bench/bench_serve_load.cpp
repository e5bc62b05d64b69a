// Serve engine under synthetic production load: small KV blocks + scheduler
// vs. a dense FIFO baseline at equal KV memory.
//
// Two engines run the SAME open-loop trace (bursty Poisson arrivals,
// bounded-Pareto heavy-tail prompt lengths, a shared system prompt on half
// the requests, an interactive high-priority slice):
//
//  * dense — max_batch = B over a pool of B blocks of max_seq rows, full
//    prefill at admission, no prefix sharing: each admitted request maps
//    one dense max_seq block, the pre-scheduler engine's shape and KV
//    budget;
//  * paged — a pool of 16-row blocks holding EXACTLY those bytes, but 4B
//    batch slots, chunked prefill interleaved with decode, copy-on-write
//    prefix sharing, and swap preemption under pool pressure.
//
// Acceptance bars (exit nonzero when missed, full mode):
//  * the paged engine sustains >= 2x the dense engine's peak concurrent
//    active requests at equal KV memory;
//  * p99 TTFT (measured from each request's intended arrival) improves
//    vs. the dense FIFO baseline;
//  * zero dropped/out-of-order streaming tokens on both engines.
//
// Flags:
//   --smoke   one small paged run (~2s) for the tier-1 ctest: zero dropped
//             tokens, every request completes, p99 TTFT under 5s
//   --json    machine-readable result on stdout (the BENCH baseline format)
// Environment (ignored under --smoke):
//   FT2_BENCH_REQUESTS   trace length        (default 96)
//   FT2_BENCH_RATE       mean arrivals/sec   (default 150)
//   FT2_BENCH_BATCH      dense max_batch B   (default 4)
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "serve/load_gen.hpp"

using namespace ft2;

namespace {

TransformerLM bench_model() {
  ModelConfig c;
  c.name = "bench-serve-load";
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 128;
  c.n_heads = 8;
  c.n_blocks = 4;
  c.d_ff = 384;
  c.max_seq = 256;
  Xoshiro256 rng(2026);
  return TransformerLM(c, init_weights(c, rng));
}

Json report_json(const LoadReport& r) {
  Json out = Json::object();
  out["offered"] = static_cast<double>(r.offered);
  out["completed"] = static_cast<double>(r.completed);
  out["rejected"] = static_cast<double>(r.rejected);
  out["dropped_tokens"] = static_cast<double>(r.dropped_tokens);
  out["wall_s"] = r.wall_s;
  out["tokens_per_s"] = r.tokens_per_s;
  out["ttft_p50_ms"] = r.ttft_p50_ms;
  out["ttft_p95_ms"] = r.ttft_p95_ms;
  out["ttft_p99_ms"] = r.ttft_p99_ms;
  out["gap_p50_ms"] = r.gap_p50_ms;
  out["gap_p99_ms"] = r.gap_p99_ms;
  out["peak_active"] = static_cast<double>(r.peak_active);
  out["peak_queue_depth"] = static_cast<double>(r.peak_queue_depth);
  out["peak_kv_blocks"] = static_cast<double>(r.peak_kv_blocks);
  out["preemptions"] = static_cast<double>(r.preemptions);
  out["shared_prefix_rows"] = static_cast<double>(r.shared_prefix_rows);
  return out;
}

void report_row(Table& table, const char* label, const LoadReport& r) {
  table.begin_row()
      .cell(label)
      .count(r.completed)
      .num(r.ttft_p50_ms, 1)
      .num(r.ttft_p99_ms, 1)
      .num(r.gap_p50_ms, 2)
      .num(r.tokens_per_s, 1)
      .count(r.peak_active)
      .count(r.preemptions)
      .count(r.shared_prefix_rows);
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, {{"smoke", false}, {"json", false}});
  const bool smoke = args.has("smoke");
  const bool json = args.has("json");

  const std::size_t n_requests =
      smoke ? 12 : env_size("FT2_BENCH_REQUESTS", 96);
  const double rate =
      smoke ? 400.0 : static_cast<double>(env_size("FT2_BENCH_RATE", 150));
  const std::size_t dense_batch = smoke ? 4 : env_size("FT2_BENCH_BATCH", 4);
  const std::size_t block_rows = 16;

  if (!json && !smoke) {
    bench::print_header("serve load (paged KV + scheduler vs dense FIFO)",
                        "open-loop synthetic production trace");
  }

  const TransformerLM model = bench_model();
  const ModelConfig& cfg = model.config();

  LoadSpec spec;
  spec.n_requests = n_requests;
  spec.arrival_rate_hz = rate;
  spec.bursty = true;
  spec.burst_factor = 4.0;
  spec.burst_period_s = 0.25;
  spec.prompt_min = 8;
  spec.prompt_max = smoke ? 48 : 160;
  spec.prompt_alpha = 1.1;
  spec.shared_fraction = 0.5;
  spec.shared_prefix_len = smoke ? 24 : 48;
  spec.interactive_fraction = 0.25;
  spec.interactive_priority = 5;
  spec.interactive_deadline_ms = 50.0;
  spec.max_new_tokens = smoke ? 8 : 24;
  spec.seed = 7;
  const auto load = build_load(spec, cfg.vocab_size);

  const std::size_t blocks_per_seq =
      (cfg.max_seq + block_rows - 1) / block_rows;
  // The dense engine's KV budget: B resident max_seq caches. The paged
  // pool gets exactly those bytes.
  const std::size_t pool_blocks = dense_batch * blocks_per_seq;

  ServeOptions paged_opts;
  paged_opts.max_batch = dense_batch * 4;
  paged_opts.kv_block_rows = block_rows;
  paged_opts.kv_pool_blocks = pool_blocks;
  paged_opts.prefill_chunk_budget = 32;
  paged_opts.share_prefix = true;

  if (smoke) {
    MetricsRegistry registry;
    paged_opts.obs.metrics = &registry;
    ServeEngine engine(model, paged_opts);
    const LoadReport r = run_load(engine, load);
    const bool pass = r.dropped_tokens == 0 && r.completed == r.offered &&
                      r.ttft_p99_ms < 5000.0;
    std::cout << "serve load smoke: " << r.completed << "/" << r.offered
              << " completed, " << r.dropped_tokens
              << " dropped tokens, p99 TTFT " << r.ttft_p99_ms << " ms, "
              << r.preemptions << " preemptions, " << r.shared_prefix_rows
              << " shared prefix rows -> " << (pass ? "PASS" : "FAIL")
              << "\n";
    return pass ? 0 : 1;
  }

  MetricsRegistry dense_registry;
  ServeOptions dense_opts;
  dense_opts.max_batch = dense_batch;
  dense_opts.kv_block_rows = cfg.max_seq;
  dense_opts.kv_pool_blocks = dense_batch;
  dense_opts.obs.metrics = &dense_registry;
  ServeEngine dense_engine(model, dense_opts);
  const LoadReport dense = run_load(dense_engine, load);

  MetricsRegistry paged_registry;
  paged_opts.obs.metrics = &paged_registry;
  ServeEngine paged_engine(model, paged_opts);
  const LoadReport paged = run_load(paged_engine, load);

  const double concurrency_ratio =
      dense.peak_active > 0
          ? static_cast<double>(paged.peak_active) /
                static_cast<double>(dense.peak_active)
          : 0.0;
  const bool pass = dense.dropped_tokens == 0 && paged.dropped_tokens == 0 &&
                    dense.completed == dense.offered &&
                    paged.completed == paged.offered &&
                    concurrency_ratio >= 2.0 &&
                    paged.ttft_p99_ms < dense.ttft_p99_ms;

  if (json) {
    Json out = Json::object();
    out["bench"] = "serve_load";
    Json c = Json::object();
    c["requests"] = static_cast<double>(n_requests);
    c["arrival_rate_hz"] = rate;
    c["dense_max_batch"] = static_cast<double>(dense_batch);
    c["paged_max_batch"] = static_cast<double>(paged_opts.max_batch);
    c["kv_pool_blocks"] = static_cast<double>(pool_blocks);
    c["kv_block_rows"] = static_cast<double>(block_rows);
    c["prompt_max"] = static_cast<double>(spec.prompt_max);
    c["shared_fraction"] = spec.shared_fraction;
    c["max_new_tokens"] = static_cast<double>(spec.max_new_tokens);
    c["smoke"] = smoke;
    out["config"] = c;
    out["dense"] = report_json(dense);
    out["paged"] = report_json(paged);
    out["concurrency_ratio"] = concurrency_ratio;
    out["ttft_p99_improves"] = paged.ttft_p99_ms < dense.ttft_p99_ms;
    out["pass"] = pass;
    std::cout << out.dump() << "\n";
    return pass ? 0 : 1;
  }

  std::cout << "model: d_model=" << cfg.d_model << " blocks=" << cfg.n_blocks
            << " max_seq=" << cfg.max_seq << "; trace: " << n_requests
            << " requests @ " << rate << "/s (bursty), prompts "
            << spec.prompt_min << ".." << spec.prompt_max
            << " (bounded Pareto), " << spec.shared_fraction * 100
            << "% share a " << spec.shared_prefix_len
            << "-token system prompt\nKV memory (both engines): "
            << pool_blocks << " blocks x " << block_rows << " rows\n\n";

  Table table({"engine", "completed", "ttft p50", "ttft p99", "gap p50",
               "tok/s", "peak active", "preempt", "shared rows"});
  report_row(table, "dense fifo", dense);
  report_row(table, "paged+sched", paged);
  table.print(std::cout);

  std::cout << "\nconcurrency ratio (paged/dense peak active): "
            << concurrency_ratio << "x ("
            << (concurrency_ratio >= 2.0 ? "meets" : "BELOW")
            << " the 2x bar)\n"
            << "p99 TTFT: " << paged.ttft_p99_ms << " ms paged vs "
            << dense.ttft_p99_ms << " ms dense ("
            << (paged.ttft_p99_ms < dense.ttft_p99_ms ? "improves"
                                                      : "NO IMPROVEMENT")
            << ")\n"
            << "dropped tokens: " << dense.dropped_tokens + paged.dropped_tokens
            << "\n";
  return pass ? 0 : 1;
}
