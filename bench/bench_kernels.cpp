// Kernel microbenchmarks: the hot paths of the engine and of the
// protection itself. Useful for regression-tracking the cost of the FP16
// software path and the range-restriction kernel the overhead results
// (Fig. 14) depend on.
//
// Two modes:
//   bench_kernels [google-benchmark flags]
//       the registered BM_* microbenchmarks (default mode);
//   bench_kernels --tiers [--json FILE]
//       per-dispatch-tier packed-GEMM, attention-core, quantize and
//       protection-epilogue throughput (every tier the host supports).
//       The attention core is the benchmark model's (8 heads x 16, keys
//       head-interleaved) at two shapes, each timed as three passes: Q·K
//       (qk_heads), the column softmax (softmax_columns, scores restored
//       each rep) and P·V (pv_heads). "serve" is one decode row over 256
//       cached keys in the 16-row runs of a paged cache; "campaign" is the
//       rows of a campaign trial's decode, 64 to 80 keys, each one plain
//       run. The epilogue is the kernel's
//       full FT2 plan (quantize + NaN fix + clip) swept once over a
//       16x384 span; a protected site does the same work as a quantize
//       sweep after its GEMM and a clip sweep inside its hook. The GEMMs are
//       the benchmark model's own MLP shapes, fc1 (384x128) and fc2
//       (128x384), on packed tiles at 1 row (a solo decode step or
//       campaign trial), 3, 4, 8 and 16 rows (decode batches and prefill
//       chunks): the AVX2 tier runs four rows per pass on AVX-512F hosts,
//       so 3 and 4 rows straddle that switch.
//       The exponential is exp_span over 4096 floats in [-16, 0] (softmax's
//       range); SiLU is silu over a 16x384 span.
//       --json writes the bench/baselines/BENCH_kernels.json shape, host
//       included; without it a table prints.
//   bench_kernels --exp-sweep
//       every tier's exp_span against detail::expf_ref and against
//       std::exp on all 2^32 float bit patterns (NaN payloads included),
//       on up to 4 threads; prints the mismatch counts and exits nonzero
//       if any tier differs from expf_ref. Takes ~30 s on 4 cores.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "core/ft2.hpp"

namespace ft2 {
namespace {

void BM_F16FromFloat(benchmark::State& state) {
  std::vector<float> values(1024);
  Xoshiro256 rng(1);
  for (float& f : values) f = rng.uniform_float(-4.0f, 4.0f);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (float f : values) acc += f16::from_float(f).bits();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_F16FromFloat);

void BM_QuantizeSpan(benchmark::State& state) {
  std::vector<float> values(static_cast<std::size_t>(state.range(0)));
  Xoshiro256 rng(2);
  for (float& f : values) f = rng.uniform_float(-4.0f, 4.0f);
  for (auto _ : state) {
    quantize_span_f16(values);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_QuantizeSpan)->Arg(64)->Arg(256)->Arg(1024);

void BM_LinearOneRow(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  Tensor w({d, d}), x({1, d}), y({1, d});
  Xoshiro256 rng(3);
  for (float& f : w.span()) f = rng.uniform_float(-0.1f, 0.1f);
  for (float& f : x.span()) f = rng.uniform_float(-1.0f, 1.0f);
  const PackedLinear pl(w, {});
  ThreadPool pool(1);
  for (auto _ : state) {
    linear_forward_span_packed(x, 1, pl, y, pool);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d * d));
}
BENCHMARK(BM_LinearOneRow)->Arg(48)->Arg(64)->Arg(256);

void BM_Softmax(benchmark::State& state) {
  std::vector<float> v(static_cast<std::size_t>(state.range(0)));
  Xoshiro256 rng(4);
  for (auto _ : state) {
    for (float& f : v) f = rng.uniform_float(-5.0f, 5.0f);
    softmax(v);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(32)->Arg(96);

void BM_RangeRestrict(benchmark::State& state) {
  std::vector<float> v(static_cast<std::size_t>(state.range(0)));
  Xoshiro256 rng(5);
  Bounds bounds;
  bounds.observe(-1.0f);
  bounds.observe(1.0f);
  for (auto _ : state) {
    for (float& f : v) f = rng.uniform_float(-2.0f, 2.0f);
    range_restrict(v, bounds, ClipPolicy::kToBound, true, nullptr);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RangeRestrict)->Arg(64)->Arg(256);

void BM_RopeApply(benchmark::State& state) {
  std::vector<float> v(64);
  Xoshiro256 rng(6);
  for (float& f : v) f = rng.uniform_float(-1.0f, 1.0f);
  std::size_t pos = 0;
  for (auto _ : state) {
    rope_apply(v, 4, 16, pos++ % 96);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_RopeApply);

void BM_ForwardPosition(benchmark::State& state) {
  ModelConfig c;
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
  Xoshiro256 rng(7);
  const TransformerLM model(c, init_weights(c, rng));
  KvCache cache = model.make_cache();
  Workspace ws(c);
  HookChain hooks;
  std::vector<float> logits(c.vocab_size);

  const bool fp16 = state.range(0) != 0;
  for (auto _ : state) {
    if (cache.length() >= c.max_seq) cache.reset();
    model.forward_position(5, cache.length(), cache, hooks, ExecConfig{fp16},
                           false, ws, logits);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetLabel(fp16 ? "fp16" : "fp32");
}
BENCHMARK(BM_ForwardPosition)->Arg(1)->Arg(0);

// --- Per-tier throughput (--tiers mode) -------------------------------------

/// Best-of-reps wall time of `fn` (which runs `items` work items once),
/// auto-calibrated so each timed rep lasts at least ~40ms.
template <typename Fn>
double best_items_per_sec(double items, std::size_t reps, Fn&& fn) {
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (s >= 0.04 || iters >= (1u << 20)) break;
    iters *= 2;
  }
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const double rate = items * static_cast<double>(iters) / s;
    best = std::max(best, rate);
  }
  return best;
}

/// One GEMM shape the benchmark model runs: y[rows][n] = x[rows][k] * W^T.
struct GemmShape {
  const char* name;
  std::size_t n, k;
};

/// The benchmark model's two MLP GEMMs (d_model 128, d_ff 384), each at
/// every row count of kGemmRows.
constexpr GemmShape kGemmShapes[] = {{"fc1", 384, 128}, {"fc2", 128, 384}};
constexpr std::size_t kGemmRows[] = {1, 3, 4, 8, 16};

/// Packed GEMM GFLOP/s, one per kGemmRows entry.
struct GemmRates {
  double gflops[std::size(kGemmRows)] = {};
};

/// One attention shape: a decode row over every key count in [keys_lo,
/// keys_hi], the cache read in runs of `run` rows (0: one plain run).
struct AttnShape {
  const char* name;
  std::size_t keys_lo, keys_hi, run;
};

/// The benchmark model's heads; a serve decode row deep in a paged cache
/// of 16-row blocks, and a campaign trial's decode rows (64-token prompt,
/// 16 generated tokens) on a plain cache.
constexpr std::size_t kAttnHeads = 8, kAttnHeadDim = 16;
constexpr AttnShape kAttnShapes[] = {{"serve", 256, 256, 16},
                                     {"campaign", 64, 80, 0}};

struct AttnRates {
  double qk_gflops = 0.0;       ///< qk_heads, 2 flops per multiply-add
  double softmax_gelems = 0.0;  ///< softmax_columns, scores per second
  double pv_gflops = 0.0;       ///< pv_heads, 2 flops per multiply-add
};

struct TierRates {
  GemmRates gemm[std::size(kGemmShapes)];  ///< one per kGemmShapes entry
  AttnRates attention[std::size(kAttnShapes)];  ///< per kAttnShapes entry
  double quantize_gelems = 0.0;            ///< quantize_span_f16 sweep
  double epilogue_gelems = 0.0;            ///< FT2 bounds epilogue sweep
  double exp_gelems = 0.0;                 ///< exp_span
  double silu_gelems = 0.0;                ///< silu over 16 x 384
};

/// Epilogue span: 16 rows of the benchmark model's d_ff-wide fc1 output.
constexpr std::size_t kEpilogueRows = 16, kEpilogueCols = 384;
/// Exponential span length. SiLU runs over the epilogue's span shape.
constexpr std::size_t kExpElems = 4096;

GemmRates measure_gemm(const GemmShape& shape, std::size_t reps,
                       ThreadPool& pool, Xoshiro256& rng) {
  const std::size_t n = shape.n, k = shape.k;
  const std::size_t max_rows = *std::max_element(std::begin(kGemmRows),
                                                 std::end(kGemmRows));
  Tensor x({max_rows, k}), w({n, k}), y({max_rows, n});
  for (float& f : x.span()) f = rng.uniform_float(-1.0f, 1.0f);
  for (float& f : w.span()) f = rng.uniform_float(-0.1f, 0.1f);
  std::vector<float> bias(n);
  for (float& f : bias) f = rng.uniform_float(-0.5f, 0.5f);

  GemmRates rates;
  const double flops = 2.0 * static_cast<double>(n * k);
  const PackedLinear pl(w, bias);
  for (std::size_t i = 0; i < std::size(kGemmRows); ++i) {
    const std::size_t rows = kGemmRows[i];
    rates.gflops[i] =
        best_items_per_sec(flops * static_cast<double>(rows), reps, [&] {
          linear_forward_span_packed(x, rows, pl, y, pool);
        }) / 1e9;
  }
  return rates;
}

/// The epilogue's full plan for protected fp16 FT2 decode after the first
/// token: quantize, then NaN fix and clip against constant bounds, in one
/// sweep. Values stay inside the bounds, so this is the clean-path kernel
/// cost per output element.
double measure_epilogue(const KernelOps& ops, std::size_t reps,
                        Xoshiro256& rng) {
  std::vector<float> v(kEpilogueRows * kEpilogueCols);
  for (float& f : v) f = rng.uniform_float(-4.0f, 4.0f);
  KernelEpilogue epi;
  epi.quantize = true;
  epi.protect = KernelEpilogue::Protect::kBounds;
  epi.correct_nan = true;
  epi.lo = -8.0f;
  epi.hi = 8.0f;
  epi.lo_sub = epi.lo;
  epi.hi_sub = epi.hi;
  EpilogueTally tally;
  return best_items_per_sec(static_cast<double>(v.size()), reps, [&] {
    ops.epilogue_span(v.data(), v.size(), 0, epi, &tally);
  }) / 1e9;
}

/// Attention's three passes over one shape's rows, as the forward engine
/// runs them: Q·K per run of cached keys into the [keys][heads] score
/// block, the column softmax over the block, then P·V per run.
AttnRates measure_attention(const KernelOps& ops, const AttnShape& shape,
                            std::size_t reps, Xoshiro256& rng) {
  const std::size_t h = kAttnHeads, d = kAttnHeads * kAttnHeadDim;
  const std::size_t max_keys = shape.keys_hi;
  std::vector<float> keys(max_keys * d), values(max_keys * d), q(d);
  std::vector<float> raw(max_keys * h), scores(raw.size()), probs(raw.size());
  std::vector<float> out(d);
  for (float& f : keys) f = rng.uniform_float(-1.0f, 1.0f);
  for (float& f : values) f = rng.uniform_float(-1.0f, 1.0f);
  for (float& f : q) f = rng.uniform_float(-1.0f, 1.0f);
  for (float& f : raw) f = rng.uniform_float(-4.0f, 4.0f);
  probs = raw;
  softmax_columns(probs.data(), max_keys, h);
  std::size_t rows = 0;  // sum of the key counts the shape attends over
  for (std::size_t len = shape.keys_lo; len <= shape.keys_hi; ++len) {
    rows += len;
  }
  const auto runs = [&](std::size_t len, auto&& fn) {
    const std::size_t run = shape.run == 0 ? len : shape.run;
    for (std::size_t j = 0; j < len; j += run) fn(j, std::min(run, len - j));
  };
  const double macs = static_cast<double>(rows * d);
  AttnRates rates;
  rates.qk_gflops = 2.0 * best_items_per_sec(macs, reps, [&] {
    for (std::size_t len = shape.keys_lo; len <= shape.keys_hi; ++len) {
      runs(len, [&](std::size_t j, std::size_t n) {
        ops.qk_heads(q.data(), keys.data() + j * d, n, h, kAttnHeadDim,
                     scores.data() + j * h);
      });
    }
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }) / 1e9;
  rates.softmax_gelems = best_items_per_sec(
      static_cast<double>(rows * h), reps, [&] {
        for (std::size_t len = shape.keys_lo; len <= shape.keys_hi; ++len) {
          std::copy_n(raw.begin(), len * h, scores.begin());
          softmax_columns(scores.data(), len, h);
        }
        benchmark::DoNotOptimize(scores.data());
        benchmark::ClobberMemory();
      }) / 1e9;
  rates.pv_gflops = 2.0 * best_items_per_sec(macs, reps, [&] {
    for (std::size_t len = shape.keys_lo; len <= shape.keys_hi; ++len) {
      std::fill(out.begin(), out.end(), 0.0f);
      runs(len, [&](std::size_t j, std::size_t n) {
        ops.pv_heads(probs.data() + j * h, values.data() + j * d, n, h,
                     kAttnHeadDim, out.data());
      });
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }) / 1e9;
  return rates;
}

/// The machine the rates were measured on: CPU model (from
/// /proc/cpuinfo, "unknown" elsewhere), hardware threads and whether the
/// CPU has AVX-512F (which picks the AVX2 tier's GEMM body).
Json host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  Json host = Json::object();
  host["cpu"] = cpu;
  host["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  host["avx512f"] = detail::cpu_has_avx512f();
  return host;
}

TierRates measure_tier(KernelTier tier, std::size_t reps) {
  set_kernel_tier(tier);
  ThreadPool pool(1);  // single worker: kernel throughput, not pool scaling
  Xoshiro256 rng(99);
  const KernelOps& ops = kernel_ops_for(tier);
  TierRates rates;
  for (std::size_t s = 0; s < std::size(kGemmShapes); ++s) {
    rates.gemm[s] = measure_gemm(kGemmShapes[s], reps, pool, rng);
  }
  {
    std::vector<float> v(1u << 16);
    for (float& f : v) f = rng.uniform_float(-4.0f, 4.0f);
    rates.quantize_gelems = best_items_per_sec(
        static_cast<double>(v.size()), reps,
        [&] { quantize_span_f16(v); }) / 1e9;
  }
  for (std::size_t s = 0; s < std::size(kAttnShapes); ++s) {
    rates.attention[s] = measure_attention(ops, kAttnShapes[s], reps, rng);
  }
  rates.epilogue_gelems = measure_epilogue(ops, reps, rng);
  {
    std::vector<float> x(kExpElems), y(kExpElems);
    for (float& f : x) f = rng.uniform_float(-16.0f, 0.0f);
    rates.exp_gelems = best_items_per_sec(static_cast<double>(x.size()), reps,
                                          [&] {
      ops.exp_span(x.data(), y.data(), x.size());
      benchmark::DoNotOptimize(y.data());
    }) / 1e9;
  }
  {
    std::vector<float> act(kEpilogueRows * kEpilogueCols), v(act.size());
    for (float& f : act) f = rng.uniform_float(-4.0f, 4.0f);
    rates.silu_gelems = best_items_per_sec(static_cast<double>(v.size()),
                                           reps, [&] {
      std::copy(act.begin(), act.end(), v.begin());
      silu(v);
      benchmark::DoNotOptimize(v.data());
    }) / 1e9;
  }
  return rates;
}

/// Mismatch counts of one tier's exp_span over all 2^32 inputs.
struct ExpSweepCounts {
  std::atomic<std::uint64_t> vs_ref{0};
  std::atomic<std::uint64_t> vs_libm{0};
};

int run_exp_sweep() {
  const std::vector<KernelTier> tiers = supported_kernel_tiers();
  std::vector<ExpSweepCounts> counts(tiers.size());
  std::atomic<std::uint64_t> ref_vs_libm{0};
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
  constexpr std::size_t kChunk = 4096;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<float> x(kChunk), y(kChunk), ref(kChunk), libm(kChunk);
      std::vector<std::uint64_t> tier_ref(tiers.size()), tier_libm(tiers.size());
      std::uint64_t own_ref_vs_libm = 0;
      for (std::uint64_t b0 = t * kChunk; b0 < kAll; b0 += threads * kChunk) {
        for (std::size_t i = 0; i < kChunk; ++i) {
          x[i] = std::bit_cast<float>(static_cast<std::uint32_t>(b0 + i));
          ref[i] = detail::expf_ref(x[i]);
          libm[i] = std::exp(x[i]);
          own_ref_vs_libm += std::bit_cast<std::uint32_t>(ref[i]) !=
                             std::bit_cast<std::uint32_t>(libm[i]);
        }
        for (std::size_t k = 0; k < tiers.size(); ++k) {
          kernel_ops_for(tiers[k]).exp_span(x.data(), y.data(), kChunk);
          for (std::size_t i = 0; i < kChunk; ++i) {
            const std::uint32_t got = std::bit_cast<std::uint32_t>(y[i]);
            tier_ref[k] += got != std::bit_cast<std::uint32_t>(ref[i]);
            tier_libm[k] += got != std::bit_cast<std::uint32_t>(libm[i]);
          }
        }
      }
      for (std::size_t k = 0; k < tiers.size(); ++k) {
        counts[k].vs_ref += tier_ref[k];
        counts[k].vs_libm += tier_libm[k];
      }
      ref_vs_libm += own_ref_vs_libm;
    });
  }
  for (std::thread& w : workers) w.join();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  std::cout << "exp sweep: every tier's exp_span against expf_ref and "
               "std::exp\nall "
            << kAll << " float bit patterns, " << threads << " threads, "
            << secs << " s\n\n";
  Table table({"tier", "mismatches vs expf_ref", "mismatches vs std::exp"});
  bool ok = true;
  for (std::size_t k = 0; k < tiers.size(); ++k) {
    table.begin_row()
        .cell(kernel_tier_name(tiers[k]))
        .cell(std::to_string(counts[k].vs_ref.load()))
        .cell(std::to_string(counts[k].vs_libm.load()));
    ok = ok && counts[k].vs_ref.load() == 0;
  }
  table.print(std::cout);
  std::cout << "\nexpf_ref vs std::exp: " << ref_vs_libm.load()
            << " mismatches (host libm)\n";
  return ok ? 0 : 1;
}

int run_tiers(const ArgParser& args) {
  const std::size_t reps = env_size("FT2_BENCH_REPS", 5);
  const KernelTier restore = active_kernel_tier();

  Json tiers = Json::object();
  std::vector<std::string> gemm_cols = {"tier", "gemm"};
  for (const std::size_t rows : kGemmRows) {
    gemm_cols.push_back(std::to_string(rows) + (rows == 1 ? " row" : " rows"));
  }
  Table gemm_table(gemm_cols);
  Table table({"tier", "gemm body", "quantize Gelem/s", "epilogue Gelem/s",
               "exp Gelem/s", "silu Gelem/s"});
  Table attn_table({"tier", "attention", "Q·K GFLOP/s", "softmax Gelem/s",
                    "P·V GFLOP/s"});
  for (KernelTier tier : supported_kernel_tiers()) {
    const TierRates r = measure_tier(tier, reps);
    const char* gemm_body = kernel_ops_for(tier).gemm_body;
    Json t = Json::object();
    t["gemm_body"] = gemm_body;
    for (std::size_t s = 0; s < std::size(kGemmShapes); ++s) {
      const GemmRates& g = r.gemm[s];
      gemm_table.begin_row()
          .cell(s == 0 ? kernel_tier_name(tier) : "")
          .cell(kGemmShapes[s].name);
      Json by_rows = Json::object();
      for (std::size_t i = 0; i < std::size(kGemmRows); ++i) {
        gemm_table.num(g.gflops[i], 2);
        by_rows[std::to_string(kGemmRows[i])] = g.gflops[i];
      }
      Json shape = Json::object();
      shape["gemm_packed_gflops_by_rows"] = by_rows;
      t[kGemmShapes[s].name] = shape;
    }
    table.begin_row()
        .cell(kernel_tier_name(tier))
        .cell(gemm_body)
        .num(r.quantize_gelems, 2)
        .num(r.epilogue_gelems, 2)
        .num(r.exp_gelems, 3)
        .num(r.silu_gelems, 3);
    Json attention = Json::object();
    for (std::size_t s = 0; s < std::size(kAttnShapes); ++s) {
      const AttnRates& a = r.attention[s];
      attn_table.begin_row()
          .cell(s == 0 ? kernel_tier_name(tier) : "")
          .cell(kAttnShapes[s].name)
          .num(a.qk_gflops, 2)
          .num(a.softmax_gelems, 3)
          .num(a.pv_gflops, 2);
      Json shape = Json::object();
      shape["qk_gflops"] = a.qk_gflops;
      shape["softmax_gelems_per_sec"] = a.softmax_gelems;
      shape["pv_gflops"] = a.pv_gflops;
      attention[kAttnShapes[s].name] = shape;
    }
    t["attention"] = attention;
    t["quantize_gelems_per_sec"] = r.quantize_gelems;
    t["epilogue_gelems_per_sec"] = r.epilogue_gelems;
    t["exp_gelems_per_sec"] = r.exp_gelems;
    t["silu_gelems_per_sec"] = r.silu_gelems;
    tiers[kernel_tier_name(tier)] = t;
  }
  set_kernel_tier(restore);

  if (args.has("json")) {
    Json out = Json::object();
    out["bench"] = "kernels";
    Json cfg = Json::object();
    Json shapes = Json::object();
    for (const GemmShape& g : kGemmShapes) {
      Json shape = Json::object();
      shape["n"] = static_cast<double>(g.n);
      shape["k"] = static_cast<double>(g.k);
      shapes[g.name] = shape;
    }
    cfg["gemm_shapes"] = shapes;
    Json gemm_rows = Json::array();
    for (const std::size_t rows : kGemmRows) {
      gemm_rows.push_back(static_cast<double>(rows));
    }
    cfg["gemm_rows"] = gemm_rows;
    cfg["tile_cols"] = static_cast<double>(kTileCols);
    Json attn_shapes = Json::object();
    for (const AttnShape& a : kAttnShapes) {
      Json shape = Json::object();
      shape["keys_lo"] = static_cast<double>(a.keys_lo);
      shape["keys_hi"] = static_cast<double>(a.keys_hi);
      shape["run_rows"] = static_cast<double>(a.run);
      attn_shapes[a.name] = shape;
    }
    cfg["attention_shapes"] = attn_shapes;
    cfg["attention_heads"] = static_cast<double>(kAttnHeads);
    cfg["attention_head_dim"] = static_cast<double>(kAttnHeadDim);
    cfg["quantize_elems"] = static_cast<double>(1u << 16);
    cfg["epilogue_rows"] = static_cast<double>(kEpilogueRows);
    cfg["epilogue_cols"] = static_cast<double>(kEpilogueCols);
    cfg["exp_elems"] = static_cast<double>(kExpElems);
    cfg["reps"] = static_cast<double>(reps);
    cfg["threads"] = 1.0;
    out["config"] = cfg;
    out["host"] = host_json();
    out["tiers"] = tiers;
    out["default_tier"] = kernel_tier_name(active_kernel_tier());
    const std::string path = args.get("json", "");
    if (path.empty()) {
      std::cout << out.dump() << "\n";
    } else {
      std::ofstream f(path);
      f << out.dump() << "\n";
      std::cout << "wrote " << path << "\n";
    }
    return 0;
  }
  bench::print_header("kernel dispatch tiers",
                      "GEMM/quantize throughput per CPU tier");
  std::cout << "gemm ";
  for (const GemmShape& g : kGemmShapes) {
    std::cout << g.name << " " << g.n << "x" << g.k << ", ";
  }
  std::cout << "packed GFLOP/s by rows, single worker; epilogue "
            << kEpilogueRows << "x" << kEpilogueCols
            << " ft2 bounds plan; exp " << kExpElems << " floats; silu "
            << kEpilogueRows << "x" << kEpilogueCols << "; best of " << reps
            << "\n\n";
  gemm_table.print(std::cout);
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nattention " << kAttnHeads << " heads x " << kAttnHeadDim;
  for (const AttnShape& a : kAttnShapes) {
    std::cout << "; " << a.name << " " << a.keys_lo;
    if (a.keys_hi != a.keys_lo) std::cout << "-" << a.keys_hi;
    std::cout << " keys in ";
    if (a.run == 0) {
      std::cout << "one run";
    } else {
      std::cout << a.run << "-row runs";
    }
  }
  std::cout << "\n\n";
  attn_table.print(std::cout);
  std::cout << "\nall tiers are bit-exact (ctest -R KernelTierEquivalence); "
               "pick with FT2_KERNEL or --kernel\n";
  return 0;
}

}  // namespace
}  // namespace ft2

int main(int argc, char** argv) {
  // --tiers and --exp-sweep intercept before google-benchmark sees the
  // arguments.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--exp-sweep") {
      return ft2::run_exp_sweep();
    }
    if (std::string_view(argv[i]) == "--tiers") {
      const ft2::ArgParser args(argc - 1, argv + 1,
                                {{"tiers", false}, {"json", true}});
      return ft2::run_tiers(args);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
