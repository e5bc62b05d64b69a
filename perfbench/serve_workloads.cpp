// chat-ft2 and rag-shared: open-loop traffic through the public ServeEngine
// API, driven by the benchmark's own load driver (not serve/load_gen's
// run_load, which cannot attach hooks, does not report generator lag, and
// leaves failed requests out of its percentiles).
//
// Each run alternates two phases over kCycles cycles, each phase on its own
// freshly built engine:
//  * fixed rate — Poisson arrivals at a frozen absolute rate; TTFT (from each
//    request's intended arrival), token gaps and the SLO share come from here;
//  * saturation — a trace sized from a frozen per-second count, all due at
//    t = 0; output tokens per second come from here.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "protect/scheme.hpp"
#include "serve/serve_engine.hpp"

namespace perfbench {
namespace {

using ft2::Xoshiro256;

/// A serving workload, frozen. Rates are absolute numbers, never fractions
/// of a measured capacity, so a faster program shows as lower latency and
/// higher throughput instead of as a harder offered load.
struct ServeSpec {
  const char* name;
  std::uint64_t stream;  ///< seeds this workload's input stream
  double rate_hz;        ///< fixed-rate phase arrivals per second
  double saturation_per_s;  ///< saturation trace requests per run second
  std::size_t prompt_min;   ///< unshared prompts: bounded Pareto range
  std::size_t prompt_max;
  double prompt_alpha;
  double shared_fraction;         ///< requests opening with the system prompt
  std::size_t system_prompt_len;  ///< its length in tokens
  std::size_t user_min;           ///< shared prompts: tokens after it
  std::size_t user_max;
  std::size_t new_tokens;
  bool protect;                ///< fresh ft2 ProtectionHook per request
  std::size_t kv_pool_blocks;  ///< 0 = no pool pressure (max_batch parity)
  double ttft_limit_ms;        ///< SLO, from the intended arrival
  double gap_limit_ms;         ///< SLO, largest gap between two tokens
};

// The offered rates sit at a third (chat) and a quarter (rag) of saturation
// throughput on a 4-core Xeon VM. At half of it, TTFT tails moved by 20-50%
// between runs: that host's CPU speed swings by about 20% over seconds and
// queueing amplifies the swings.
constexpr ServeSpec kChat{"chat-ft2", 0xC4A7, 32.0, 100.0, 8, 48, 1.2,
                          0.0, 0, 0, 0, 64, true, 0, 25.0, 15.0};
constexpr ServeSpec kRag{"rag-shared", 0x5A6, 15.0, 50.0, 64, 224, 0.5,
                         0.75, 96, 8, 128, 12, false, 40, 250.0, 100.0};

/// Shares of --seconds given to each phase. The remainder covers set-up and
/// output verification.
constexpr double kFixedRateShare = 0.7;
constexpr double kSaturationShare = 0.2;
/// Fixed-rate requests due in the first kWarmupS seconds meet a cold
/// engine (first KV and workspace allocations) and stay out of the latency
/// and SLO figures.
constexpr double kWarmupS = 1.0;
/// Each run alternates kCycles fixed-rate segments with kCycles saturation
/// replays, so both phases sample the host over the whole run: on a shared
/// host, CPU speed drifts by tens of percent over seconds, and a phase run
/// in one block would see only part of that drift.
constexpr std::size_t kCycles = 6;
/// Served requests replayed solo for verification, per phase segment.
constexpr std::size_t kVerifyPerPhase = 2;

double uniform01(Xoshiro256& rng) {
  return (static_cast<double>(rng() >> 11) + 1.0) / 9007199254740993.0;
}

/// In-place Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform(i)]);
  }
}

/// `n` stratified uniform draws in (0, 1]: one point in each of n equal
/// strata, in seeded random order. Lengths and arrival gaps drawn through
/// these have the same distribution at every seed, so seeds change the order
/// and content of the offered work, not its total, which keeps the spread
/// between runs down.
std::vector<double> stratified(std::size_t n, Xoshiro256& rng) {
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = (static_cast<double>(i) + uniform01(rng)) / static_cast<double>(n);
  }
  shuffle(u, rng);
  return u;
}

/// Bounded Pareto on [lo, hi] with tail index alpha, at quantile u.
std::size_t pareto_len(double u, std::size_t lo, std::size_t hi,
                       double alpha) {
  if (hi <= lo) return lo;
  const double la = std::pow(static_cast<double>(lo), -alpha);
  const double ha = std::pow(static_cast<double>(hi), -alpha);
  const double x = std::pow(la - u * (la - ha), -1.0 / alpha);
  return std::clamp(static_cast<std::size_t>(x), lo, hi);
}

struct TraceRequest {
  double arrival_s = 0.0;  ///< intended submit time, from the phase start
  std::vector<int> prompt;
};

/// `n` requests; Poisson arrivals at `rate_hz` (exponential gaps), or all
/// due at t = 0 when rate_hz is 0. Exactly round(shared_fraction * n)
/// requests open with the system prompt.
std::vector<TraceRequest> build_trace(const ServeSpec& w, std::size_t n,
                                      double rate_hz,
                                      const std::vector<int>& system_prompt,
                                      std::size_t vocab, Xoshiro256& rng) {
  const std::vector<double> gap_u = stratified(n, rng);
  const std::vector<double> len_u = stratified(n, rng);
  std::vector<char> shared(n, 0);
  std::fill_n(shared.begin(),
              static_cast<std::size_t>(std::llround(w.shared_fraction * n)), 1);
  shuffle(shared, rng);

  std::vector<TraceRequest> trace(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRequest& req = trace[i];
    if (rate_hz > 0.0) t += -std::log(gap_u[i]) / rate_hz;
    req.arrival_s = t;
    std::size_t len = 0;
    if (shared[i] != 0) {
      req.prompt = system_prompt;
      len = system_prompt.size() +
            pareto_len(len_u[i], w.user_min, w.user_max, w.prompt_alpha);
    } else {
      len = pareto_len(len_u[i], w.prompt_min, w.prompt_max, w.prompt_alpha);
    }
    while (req.prompt.size() < len) {
      req.prompt.push_back(static_cast<int>(rng.uniform(vocab)));
    }
  }
  return trace;
}

/// The driver's view of one request.
struct Track {
  ft2::RequestId id = 0;
  bool accepted = false;
  double submit_s = 0.0;
  double first_token_s = -1.0;
  double last_token_s = 0.0;
  std::vector<int> streamed;
  bool out_of_order = false;
  std::vector<double> gaps_ms;
  std::unique_ptr<ft2::ProtectionHook> hook;
  ft2::HookRegistration registration;
};

/// What one phase measured. Step times come from the driver's own clock
/// reads; the traced run checks them against the recorded spans.
struct PhaseRun {
  double wall_s = 0.0;
  std::vector<Track> tracks;
  std::vector<double> lag_ms;  ///< actual minus intended submit time
  std::vector<double> step_ms;
  double decode_only_ms = 0.0;  ///< steps that ran no prompt positions
  std::size_t decode_only_rows = 0;
  double prefill_step_ms = 0.0;  ///< steps that ran or adopted prompt rows
  std::size_t prefill_positions = 0;
  double peak_kv_used_frac = 0.0;
  double peak_resident_mb = 0.0;
  ft2::ServeCounters counters;
};

class Driver {
 public:
  Driver(const ft2::TransformerLM& model, const ServeSpec& w,
         const RunContext& ctx, ft2::MetricsRegistry& registry)
      : model_(model), w_(w), ctx_(ctx), registry_(registry),
        scheme_(ft2::scheme_spec(ft2::SchemeKind::kFt2, model.config())) {
    gen_.max_new_tokens = w.new_tokens;
    gen_.eos_token = -1;
    gen_.pool = ctx.pool;
  }

  const ft2::GenerateOptions& gen() const { return gen_; }
  const ft2::SchemeSpec& scheme() const { return scheme_; }

  /// Replays `trace` against `engine` on the wall clock (open loop: every
  /// request is submitted when due, whatever the backlog) and runs the
  /// engine until it is idle.
  PhaseRun run(ft2::ServeEngine& engine, const std::vector<TraceRequest>& trace,
               const char* span_name) {
    PhaseRun run;
    run.tracks.resize(trace.size());
    run.lag_ms.reserve(trace.size());
    engine.reset_counters();
    ft2::Tracer& tracer = *ctx_.tracer;
    const Clock::time_point start = Clock::now();
    const auto since = [&start] { return ms_between(start, Clock::now()) / 1e3; };
    const auto busy = [&engine] {
      return engine.active_requests() > 0 || engine.queue_depth() > 0;
    };
    const ft2::KvBlockPool* kv = engine.kv_pool();

    ft2::TraceSpan phase = tracer.span(span_name);
    std::size_t next = 0;
    while (next < trace.size() || busy()) {
      while (next < trace.size() && trace[next].arrival_s <= since()) {
        submit(engine, trace[next], run.tracks[next], since, run.lag_ms);
        ++next;
      }
      if (busy()) {
        const ft2::ServeCounters before = engine.counters();
        const Clock::time_point t0 = Clock::now();
        {
          ft2::TraceSpan step = tracer.span("serve.step");
          engine.step();
        }
        const double ms = ms_between(t0, Clock::now());
        const ft2::ServeCounters& after = engine.counters();
        run.step_ms.push_back(ms);
        const std::size_t prompt_rows =
            (after.prefill_positions - before.prefill_positions) +
            (after.shared_prefix_rows - before.shared_prefix_rows);
        if (prompt_rows > 0) {
          run.prefill_step_ms += ms;
          run.prefill_positions +=
              after.prefill_positions - before.prefill_positions;
        } else {
          run.decode_only_ms += ms;
          run.decode_only_rows += after.decode_rows - before.decode_rows;
        }
        if (kv != nullptr) {
          run.peak_kv_used_frac = std::max(
              run.peak_kv_used_frac, static_cast<double>(kv->used_blocks()) /
                                         static_cast<double>(kv->total_blocks()));
        }
        if (ctx_.trace) {
          ft2::TraceSpan poll = tracer.span("serve.resident_cache_bytes");
          run.peak_resident_mb =
              std::max(run.peak_resident_mb,
                       static_cast<double>(engine.resident_cache_bytes()) / 1e6);
        }
      } else if (next < trace.size()) {
        ft2::TraceSpan idle = tracer.span("loadgen.idle");
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(trace[next].arrival_s)));
      }
    }
    run.wall_s = since();
    phase.end();
    run.counters = engine.counters();
    return run;
  }

 private:
  template <typename Since>
  void submit(ft2::ServeEngine& engine, const TraceRequest& req, Track& track,
              const Since& since, std::vector<double>& lag_ms) {
    ft2::TraceSpan span = ctx_.tracer->span("loadgen.submit");
    track.submit_s = since();
    lag_ms.push_back((track.submit_s - req.arrival_s) * 1e3);
    track.streamed.reserve(w_.new_tokens);
    track.gaps_ms.reserve(w_.new_tokens);
    ft2::ServeSubmitOptions sub;
    sub.on_token = [&track, since](ft2::RequestId, std::size_t index,
                                   int token) {
      const double now_s = since();
      if (index != track.streamed.size()) track.out_of_order = true;
      track.streamed.push_back(token);
      if (index == 0) {
        track.first_token_s = now_s;
      } else {
        track.gaps_ms.push_back((now_s - track.last_token_s) * 1e3);
      }
      track.last_token_s = now_s;
    };
    try {
      track.id = engine.submit(req.prompt, gen_, sub);
      track.accepted = true;
    } catch (const ft2::Error&) {
      return;  // refused: counted as a failure by evaluate()
    }
    if (w_.protect) {
      // Attached before the first step() that could admit the request.
      track.hook = std::make_unique<ft2::ProtectionHook>(
          model_.config(), scheme_, ft2::BoundStore{}, &registry_);
      track.registration = engine.hooks(track.id).add(*track.hook);
    }
  }

  const ft2::TransformerLM& model_;
  const ServeSpec& w_;
  const RunContext& ctx_;
  ft2::MetricsRegistry& registry_;
  ft2::SchemeSpec scheme_;
  ft2::GenerateOptions gen_;
};

/// Per-request outcome of one phase. Failures (refused, cancelled, no first
/// token, wrong length, dropped / out-of-order / altered stream tokens) miss
/// both SLO limits and stay out of the latency samples. Requests due before
/// `warmup_s` are served, verified and counted as attempted but left out of
/// the latency and SLO figures: they meet a cold engine.
struct PhaseEval {
  std::size_t offered = 0;
  std::size_t failed = 0;
  std::size_t measured = 0;  ///< offered requests due after the warm-up
  std::size_t slo_met = 0;
  std::size_t tokens = 0;
  std::size_t completed = 0;
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;  ///< per request: mean gap between its tokens
  std::vector<bool> ok;         ///< per request
};

PhaseEval evaluate(const ft2::ServeEngine& engine, const PhaseRun& run,
                   const std::vector<TraceRequest>& trace, const ServeSpec& w,
                   double warmup_s) {
  PhaseEval e;
  e.offered = trace.size();
  e.ok.assign(trace.size(), false);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Track& t = run.tracks[i];
    const bool measured = trace[i].arrival_s >= warmup_s;
    if (measured) ++e.measured;
    bool ok = t.accepted && engine.finished(t.id);
    if (ok) {
      const ft2::GenerateResult& res = engine.result(t.id);
      ok = !res.cancelled && res.tokens.size() == w.new_tokens &&
           t.first_token_s >= 0.0 && !t.out_of_order &&
           t.streamed == res.tokens;
    }
    if (!ok) {
      ++e.failed;
      continue;
    }
    e.ok[i] = true;
    ++e.completed;
    e.tokens += t.streamed.size();
    if (!measured) continue;
    const double ttft = (t.first_token_s - trace[i].arrival_s) * 1e3;
    e.ttft_ms.push_back(ttft);
    double max_gap = 0.0, sum_gap = 0.0;
    for (double g : t.gaps_ms) {
      max_gap = std::max(max_gap, g);
      sum_gap += g;
    }
    if (!t.gaps_ms.empty()) {
      e.tpot_ms.push_back(sum_gap / static_cast<double>(t.gaps_ms.size()));
    }
    if (ttft <= w.ttft_limit_ms && max_gap <= w.gap_limit_ms) ++e.slo_met;
  }
  return e;
}

/// One phase segment: the engine it ran on, its trace and what running it
/// measured.
struct Phase {
  ft2::ServeEngine* engine = nullptr;
  std::vector<TraceRequest> trace;
  PhaseRun run;
  PhaseEval eval;
};

/// Replays `checks` requests spread over the phase, among those that
/// served cleanly, through a solo InferenceSession::generate (with its own
/// fresh hook for protected requests) and counts those whose tokens or
/// protection tallies differ.
std::size_t verify_phase(const ft2::TransformerLM& model, const Phase& phase,
                         std::size_t checks, const Driver& driver) {
  std::size_t mismatches = 0;
  const std::size_t n = phase.trace.size();
  checks = std::min(checks, n);
  for (std::size_t k = 0; k < checks; ++k) {
    const std::size_t i = k * n / checks;
    const Track& t = phase.run.tracks[i];
    if (!phase.eval.ok[i]) continue;  // already counted as failed
    ft2::InferenceSession session(model);
    std::unique_ptr<ft2::ProtectionHook> hook;
    ft2::HookRegistration registration;
    if (t.hook != nullptr) {
      hook = std::make_unique<ft2::ProtectionHook>(model.config(),
                                                   driver.scheme());
      registration = session.hooks().add(*hook);
    }
    const ft2::GenerateResult solo =
        session.generate(phase.trace[i].prompt, driver.gen());
    bool same = solo.tokens == phase.engine->result(t.id).tokens;
    if (hook != nullptr) {
      const ft2::ProtectionStats a = hook->stats();
      const ft2::ProtectionStats b = t.hook->stats();
      same = same && a.values_checked == b.values_checked &&
             a.nan_corrected == b.nan_corrected &&
             a.oob_corrected == b.oob_corrected;
    }
    if (!same) {
      std::cerr << "perfbench: request " << i
                << " differs from its solo replay\n";
      ++mismatches;
    }
  }
  return mismatches;
}

/// The events that lie inside any span named `parent`.
std::vector<ft2::TraceEvent> events_within(
    const std::vector<ft2::TraceEvent>& events, const std::string& parent) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const ft2::TraceEvent& e : events) {
    if (e.name == parent) spans.emplace_back(e.start_ns, e.end_ns);
  }
  std::vector<ft2::TraceEvent> out;
  for (const ft2::TraceEvent& e : events) {
    for (const auto& [lo, hi] : spans) {
      if (e.start_ns >= lo && e.end_ns <= hi) {
        out.push_back(e);
        break;
      }
    }
  }
  return out;
}

struct ServeSetup {
  std::unique_ptr<ft2::TransformerLM> model;
  std::unique_ptr<ft2::ServeEngine> fixed_engine;
  std::unique_ptr<ft2::ServeEngine> saturation_engine;
  /// Traced runs only: replays the saturation traces untraced, the baseline
  /// of obs.trace_overhead_pct.
  std::unique_ptr<ft2::ServeEngine> reference_engine;
  std::vector<Phase> fixed;       ///< kCycles segments of the fixed-rate trace
  std::vector<Phase> saturation;  ///< kCycles replays
  std::vector<Phase> reference;   ///< traced runs: the replays again
};

/// `amount(phase)` summed over phases, per second of their summed wall time.
template <typename Fn>
double pooled_rate(const std::vector<Phase>& phases, Fn&& amount) {
  double total = 0.0, wall_s = 0.0;
  for (const Phase& p : phases) {
    total += amount(p);
    wall_s += p.run.wall_s;
  }
  return total / wall_s;
}

RunResult run_serve(const ServeSpec& w, const RunContext& ctx) {
  ft2::MetricsRegistry registry;
  ft2::MetricsRegistry reference_registry;
  const std::size_t n_fixed = static_cast<std::size_t>(std::llround(
      w.rate_hz * kFixedRateShare * ctx.seconds / kCycles));
  const std::size_t n_saturation = static_cast<std::size_t>(std::llround(
      w.saturation_per_s * kSaturationShare * ctx.seconds / kCycles));
  FT2_CHECK_MSG(n_fixed > 0 && n_saturation > 0, "--seconds too small");

  // Set-up: model, engines (weight packing included) and all traces.
  double setup_s = 0.0;
  const std::unique_ptr<ServeSetup> setup = build_timed(
      [&] {
        auto s = std::make_unique<ServeSetup>();
        s->model = std::make_unique<ft2::TransformerLM>(make_model());
        ft2::ServeOptions opts;
        opts.max_batch = 16;
        opts.pool = ctx.pool;
        opts.kv_block_rows = 16;
        opts.kv_pool_blocks = w.kv_pool_blocks;
        opts.prefill_chunk_budget = 32;
        opts.preempt = ft2::PreemptMode::kSwap;
        opts.share_prefix = true;
        opts.obs = ctx.sinks(registry);
        s->fixed_engine = std::make_unique<ft2::ServeEngine>(*s->model, opts);
        s->saturation_engine =
            std::make_unique<ft2::ServeEngine>(*s->model, opts);
        if (ctx.trace) {
          opts.obs = ctx.sinks(reference_registry);
          s->reference_engine =
              std::make_unique<ft2::ServeEngine>(*s->model, opts);
        }
        const std::size_t vocab = s->model->config().vocab_size;
        Xoshiro256 rng(ctx.seed * 0x9E3779B97F4A7C15ull + w.stream);
        std::vector<int> system_prompt(w.system_prompt_len);
        for (int& tok : system_prompt) {
          tok = static_cast<int>(rng.uniform(vocab));
        }
        s->fixed.resize(kCycles);
        s->saturation.resize(kCycles);
        for (std::size_t c = 0; c < kCycles; ++c) {
          s->fixed[c].engine = s->fixed_engine.get();
          s->fixed[c].trace =
              build_trace(w, n_fixed, w.rate_hz, system_prompt, vocab, rng);
          s->saturation[c].engine = s->saturation_engine.get();
          s->saturation[c].trace =
              build_trace(w, n_saturation, 0.0, system_prompt, vocab, rng);
          if (ctx.trace) {
            Phase& ref = s->reference.emplace_back();
            ref.engine = s->reference_engine.get();
            ref.trace = s->saturation[c].trace;
          }
        }
        return s;
      },
      setup_s);
  ServeSetup& s = *setup;
  const ft2::TransformerLM& model = *s.model;

  // The phases alternate, so each samples the host over the whole run.
  Driver driver(model, w, ctx, registry);
  Driver reference(model, w, ctx, reference_registry);
  for (std::size_t c = 0; c < kCycles; ++c) {
    Phase& f = s.fixed[c];
    f.run = driver.run(*f.engine, f.trace, "workload.fixed_rate");
    Phase& sat = s.saturation[c];
    sat.run = driver.run(*sat.engine, sat.trace, "workload.saturation");
    if (ctx.trace) {
      ctx.tracer->set_enabled(false);
      Phase& ref = s.reference[c];
      ref.run = reference.run(*ref.engine, ref.trace, "reference");
      ctx.tracer->set_enabled(true);
    }
  }
  ctx.tracer->set_enabled(false);

  RunResult r;
  std::size_t mismatches = 0;
  PhaseEval fe;  // pooled over the fixed-rate segments
  PhaseRun fixed;
  for (std::size_t c = 0; c < kCycles; ++c) {
    Phase& f = s.fixed[c];
    f.eval = evaluate(*f.engine, f.run, f.trace, w, c == 0 ? kWarmupS : 0.0);
    mismatches += verify_phase(model, f, kVerifyPerPhase, driver);
    Phase& sat = s.saturation[c];
    sat.eval = evaluate(*sat.engine, sat.run, sat.trace, w, 0.0);
    mismatches += verify_phase(model, sat, kVerifyPerPhase, driver);
    r.attempted += f.eval.offered + sat.eval.offered;
    r.failed += f.eval.failed + sat.eval.failed;

    fe.offered += f.eval.offered;
    fe.measured += f.eval.measured;
    fe.slo_met += f.eval.slo_met;
    fe.ttft_ms.insert(fe.ttft_ms.end(), f.eval.ttft_ms.begin(),
                      f.eval.ttft_ms.end());
    fe.tpot_ms.insert(fe.tpot_ms.end(), f.eval.tpot_ms.begin(),
                      f.eval.tpot_ms.end());
    fixed.wall_s += f.run.wall_s;
    fixed.lag_ms.insert(fixed.lag_ms.end(), f.run.lag_ms.begin(),
                        f.run.lag_ms.end());
    fixed.step_ms.insert(fixed.step_ms.end(), f.run.step_ms.begin(),
                         f.run.step_ms.end());
    fixed.decode_only_ms += f.run.decode_only_ms;
    fixed.decode_only_rows += f.run.decode_only_rows;
    fixed.prefill_step_ms += f.run.prefill_step_ms;
    fixed.prefill_positions += f.run.prefill_positions;
  }
  r.failed += mismatches;
  r.correct = mismatches == 0;
  r.bypassed_layers = {"fi."};
  MetricMap& m = r.metrics;
  if (!ctx.trace) {
    m["setup_s"] = {setup_s, "s"};
    m["ttft_p50_ms"] = {percentile(fe.ttft_ms, 50.0), "ms"};
    m["ttft_p99_ms"] = {percentile(fe.ttft_ms, 99.0), "ms"};
    m["tpot_p50_ms"] = {percentile(fe.tpot_ms, 50.0), "ms"};
    m["slo_met_frac"] = {static_cast<double>(fe.slo_met) /
                             static_cast<double>(fe.measured),
                         "ratio"};
    m["output_tok_s"] = {pooled_rate(s.saturation,
                                     [](const Phase& p) {
                                       return static_cast<double>(
                                           p.eval.tokens);
                                     }),
                         "tok/s"};
    m["trials_per_s"] = {pooled_rate(s.saturation,
                                     [](const Phase& p) {
                                       return static_cast<double>(
                                           p.eval.completed);
                                     }),
                         "1/s"};
    std::cout << "# " << w.name << ": fixed rate " << w.rate_hz << " req/s, "
              << fe.offered << " requests (" << fe.ttft_ms.size()
              << " measured after the warm-up); saturation " << kCycles
              << " x " << n_saturation << " requests; phases alternate over "
              << kCycles << " cycles\n";
    return r;
  }

  // Traced run: per-layer metrics. Latency-side serve numbers come from the
  // fixed-rate phase; decode batch size from the saturation replays, whose
  // throughput it drives; sharing, preemption, KV peaks and protection
  // counts from every measured phase.
  std::vector<const Phase*> measured;
  std::vector<double> queue_ms, prefill_ms;
  for (const Phase& p : s.fixed) {
    measured.push_back(&p);
    for (const Track& t : p.run.tracks) {
      if (!t.accepted) continue;
      const ft2::RequestStats& st = p.engine->request_stats(t.id);
      queue_ms.push_back(st.queue_ms);
      prefill_ms.push_back(st.prefill_ms);
    }
  }
  for (const Phase& p : s.saturation) measured.push_back(&p);
  double prompt_tokens = 0.0, shared_rows = 0.0, preemptions = 0.0;
  double completed = 0.0, tokens = 0.0, peak_kv = 0.0, peak_mb = 0.0;
  for (const Phase* p : measured) {
    for (const Track& t : p->run.tracks) {
      if (t.accepted) {
        prompt_tokens += static_cast<double>(
            p->engine->request_stats(t.id).prompt_tokens);
      }
    }
    const ft2::ServeCounters& c = p->run.counters;
    shared_rows += static_cast<double>(c.shared_prefix_rows);
    preemptions += static_cast<double>(c.preemptions);
    tokens += static_cast<double>(c.generated_tokens);
    completed += static_cast<double>(p->eval.completed);
    peak_kv = std::max(peak_kv, p->run.peak_kv_used_frac);
    peak_mb = std::max(peak_mb, p->run.peak_resident_mb);
  }
  double sat_rows = 0.0, sat_steps = 0.0;
  for (const Phase& p : s.saturation) {
    sat_rows += static_cast<double>(p.run.counters.decode_rows);
    sat_steps += static_cast<double>(p.run.counters.decode_steps);
  }
  double step_total = 0.0;
  for (double ms : fixed.step_ms) step_total += ms;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  m["serve.tpot_ms.p99"] = {percentile(fe.tpot_ms, 99.0), "ms"};
  m["serve.step_ms.p50"] = {percentile(fixed.step_ms, 50.0), "ms"};
  m["serve.step_ms.p99"] = {percentile(fixed.step_ms, 99.0), "ms"};
  m["serve.busy_frac"] = {step_total / (fixed.wall_s * 1e3), "ratio"};
  m["serve.decode_batch.mean"] = {ratio(sat_rows, sat_steps), "rows"};
  m["serve.decode_ms_per_row"] = {
      ratio(fixed.decode_only_ms, static_cast<double>(fixed.decode_only_rows)),
      "ms"};
  m["serve.prefill_ms_per_pos"] = {
      ratio(fixed.prefill_step_ms, static_cast<double>(fixed.prefill_positions)),
      "ms"};
  m["serve.queue_ms.p50"] = {percentile(queue_ms, 50.0), "ms"};
  m["serve.queue_ms.p99"] = {percentile(queue_ms, 99.0), "ms"};
  m["serve.prefill_ms.p50"] = {percentile(prefill_ms, 50.0), "ms"};
  m["serve.prefix_hit_frac"] = {ratio(shared_rows, prompt_tokens), "ratio"};
  m["serve.preempt_per_req"] = {ratio(preemptions, completed), "count"};
  m["serve.kv_used_frac.peak"] = {peak_kv, "ratio"};
  m["serve.kv_resident_mb.peak"] = {peak_mb, "MB"};
  m["loadgen.lag_ms.p99"] = {percentile(fixed.lag_ms, 99.0), "ms"};

  const ft2::MetricsSnapshot snap = registry.snapshot();
  const double checked =
      static_cast<double>(counter_sum(snap, "protect.checked."));
  const double oob = static_cast<double>(counter_sum(snap, "protect.oob."));
  m["protect.checked_per_token"] = {ratio(checked, tokens), "count"};
  m["protect.clip_frac"] = {ratio(oob, checked), "ratio"};
  const auto one = [](const Phase&) { return 1.0; };
  m["obs.trace_overhead_pct"] = {
      (pooled_rate(s.reference, one) / pooled_rate(s.saturation, one) - 1.0) *
          100.0,
      "%"};

  // Reconciliation over the fixed-rate segments: their spans' self time is
  // wall time covered by no step, submit, idle or poll span; the driver's
  // own decode-only plus prefill-carrying step times must equal the step
  // spans.
  const auto spans =
      summarize_spans(events_within(ctx.tracer->events(), "workload.fixed_rate"));
  const SpanTotals& phase = spans.at("workload.fixed_rate");
  const double step_span_ms =
      spans.contains("serve.step") ? spans.at("serve.step").total_ms : 0.0;
  m["obs.unaccounted_pct"] = {phase.self_ms / phase.total_ms * 100.0, "%"};
  m["obs.step_split_err_pct"] = {
      step_span_ms > 0.0
          ? std::abs(fixed.decode_only_ms + fixed.prefill_step_ms -
                     step_span_ms) /
                step_span_ms * 100.0
          : 0.0,
      "%"};
  return r;
}

}  // namespace

RunResult run_chat_ft2(const RunContext& ctx) { return run_serve(kChat, ctx); }
RunResult run_rag_shared(const RunContext& ctx) { return run_serve(kRag, ctx); }

}  // namespace perfbench
