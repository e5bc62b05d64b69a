#include "serve/load_gen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ft2 {

namespace {
using Clock = std::chrono::steady_clock;

double uniform01(Xoshiro256& rng) {
  // 53 mantissa bits -> uniform in (0, 1]; never exactly 0 so logs and
  // inverse-CDF draws below are safe.
  return (static_cast<double>(rng() >> 11) + 1.0) / 9007199254740993.0;
}

/// Bounded Pareto on [lo, hi] with tail index alpha (inverse CDF).
std::size_t pareto_len(Xoshiro256& rng, std::size_t lo, std::size_t hi,
                       double alpha) {
  if (hi <= lo) return lo;
  const double l = static_cast<double>(lo);
  const double h = static_cast<double>(hi);
  const double u = uniform01(rng);
  const double la = std::pow(l, -alpha);
  const double ha = std::pow(h, -alpha);
  const double x = std::pow(la - u * (la - ha), -1.0 / alpha);
  return std::clamp(static_cast<std::size_t>(x), lo, hi);
}
}  // namespace

std::vector<LoadRequest> build_load(const LoadSpec& spec,
                                    std::size_t vocab_size) {
  FT2_CHECK_MSG(spec.arrival_rate_hz > 0.0, "arrival_rate_hz must be > 0");
  FT2_CHECK_MSG(spec.prompt_min >= 1, "prompt_min must be >= 1");
  FT2_CHECK_MSG(vocab_size > 0, "empty vocab");
  Xoshiro256 rng(spec.seed * 0x9E3779B97F4A7C15ull + 1);

  // The shared system prompt every `shares_prefix` request opens with —
  // one fixed draw per spec/seed.
  std::vector<int> shared(spec.shared_prefix_len);
  for (int& t : shared) {
    t = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(vocab_size)));
  }

  // Square-wave modulated Poisson: alternate half-periods run at
  // factor-apart rates whose time average equals arrival_rate_hz.
  const double f = std::max(spec.burst_factor, 1.0);
  const double hi_rate = spec.arrival_rate_hz * 2.0 * f / (1.0 + f);
  const double lo_rate = hi_rate / f;

  std::vector<LoadRequest> load;
  load.reserve(spec.n_requests);
  double t = 0.0;
  for (std::size_t i = 0; i < spec.n_requests; ++i) {
    double rate = spec.arrival_rate_hz;
    if (spec.bursty && spec.burst_period_s > 0.0) {
      const double phase = std::fmod(t, spec.burst_period_s);
      rate = phase < spec.burst_period_s * 0.5 ? hi_rate : lo_rate;
    }
    t += -std::log(uniform01(rng)) / rate;

    LoadRequest req;
    req.arrival_s = t;
    const std::size_t len =
        pareto_len(rng, spec.prompt_min, spec.prompt_max, spec.prompt_alpha);
    req.shares_prefix = !shared.empty() &&
                        uniform01(rng) < spec.shared_fraction &&
                        len > shared.size();
    if (req.shares_prefix) {
      req.prompt = shared;
    }
    while (req.prompt.size() < len) {
      req.prompt.push_back(static_cast<int>(
          rng.uniform(static_cast<std::uint64_t>(vocab_size))));
    }
    req.gen.max_new_tokens = spec.max_new_tokens;
    if (uniform01(rng) < spec.interactive_fraction) {
      req.priority = spec.interactive_priority;
      req.deadline_ms = spec.interactive_deadline_ms;
    }
    load.push_back(std::move(req));
  }
  return load;
}

double load_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

LoadReport run_load(ServeEngine& engine,
                    const std::vector<LoadRequest>& load) {
  struct Track {
    RequestId id = 0;
    bool accepted = false;
    double intended_s = 0.0;      ///< scheduled arrival offset
    double first_token_s = -1.0;  ///< run offset of token 0
    double last_token_s = 0.0;
    std::size_t tokens_seen = 0;
    bool out_of_order = false;
    std::vector<double> gaps_ms;
  };

  LoadReport report;
  report.offered = load.size();
  std::vector<Track> tracks(load.size());

  const Clock::time_point start = Clock::now();
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const ServeCounters before = engine.counters();
  std::size_t next = 0;
  const auto poll_peaks = [&] {
    report.peak_active = std::max(report.peak_active,
                                  engine.active_requests());
    report.peak_queue_depth =
        std::max(report.peak_queue_depth, engine.queue_depth());
    report.peak_kv_blocks =
        std::max(report.peak_kv_blocks, engine.kv_pool()->used_blocks());
  };

  while (next < load.size() || engine.active_requests() > 0 ||
         engine.queue_depth() > 0) {
    // Open loop: everything whose arrival time has passed is submitted now,
    // regardless of engine backlog.
    while (next < load.size() && load[next].arrival_s <= elapsed_s()) {
      const LoadRequest& lr = load[next];
      Track& track = tracks[next];
      track.intended_s = lr.arrival_s;
      ServeSubmitOptions sub;
      sub.priority = lr.priority;
      sub.deadline_ms = lr.deadline_ms;
      sub.on_token = [&track, &elapsed_s](RequestId, std::size_t index,
                                          int) {
        const double now_s = elapsed_s();
        if (index != track.tokens_seen) track.out_of_order = true;
        ++track.tokens_seen;
        if (index == 0) {
          track.first_token_s = now_s;
        } else {
          track.gaps_ms.push_back((now_s - track.last_token_s) * 1e3);
        }
        track.last_token_s = now_s;
      };
      try {
        track.id = engine.submit(lr.prompt, lr.gen, sub);
        track.accepted = true;
        ++report.submitted;
      } catch (const Error&) {
        ++report.rejected;  // max_queue_depth backpressure
      }
      ++next;
    }

    if (engine.active_requests() > 0 || engine.queue_depth() > 0) {
      engine.step();
      poll_peaks();
    } else if (next < load.size()) {
      // Idle until the next arrival comes due (open-loop gap).
      const double wait_s = load[next].arrival_s - elapsed_s();
      if (wait_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(wait_s, 0.001)));
      }
    }
  }
  report.wall_s = elapsed_s();

  std::vector<double> ttfts;
  std::vector<double> gaps;
  for (const Track& track : tracks) {
    if (!track.accepted) continue;
    const GenerateResult& res = engine.result(track.id);
    ++report.completed;
    report.generated_tokens += res.tokens.size();
    // Streaming integrity: every generated token must have arrived through
    // the callback, in order.
    if (track.out_of_order) ++report.dropped_tokens;
    if (track.tokens_seen < res.tokens.size()) {
      report.dropped_tokens += res.tokens.size() - track.tokens_seen;
    }
    if (track.first_token_s >= 0.0) {
      ttfts.push_back((track.first_token_s - track.intended_s) * 1e3);
    }
    gaps.insert(gaps.end(), track.gaps_ms.begin(), track.gaps_ms.end());
  }
  report.tokens_per_s =
      report.wall_s > 0.0
          ? static_cast<double>(report.generated_tokens) / report.wall_s
          : 0.0;
  report.ttft_p50_ms = load_percentile(ttfts, 50.0);
  report.ttft_p95_ms = load_percentile(ttfts, 95.0);
  report.ttft_p99_ms = load_percentile(ttfts, 99.0);
  report.gap_p50_ms = load_percentile(gaps, 50.0);
  report.gap_p99_ms = load_percentile(std::move(gaps), 99.0);
  const ServeCounters after = engine.counters();
  report.preemptions = after.preemptions - before.preemptions;
  report.shared_prefix_rows =
      after.shared_prefix_rows - before.shared_prefix_rows;
  return report;
}

}  // namespace ft2
