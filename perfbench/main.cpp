// ft2_perfbench: runs one benchmark workload and prints its metrics.
//
//   ft2_perfbench --workload chat-ft2|rag-shared|campaign-ft2 --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 reruns the workload
// with the benchmark's spans on, adds the layer probes and prints the
// per-layer metrics (and, with --trace-out, writes the spans as a Chrome
// trace). Lines starting with '#' describe the run; the last stdout line is
// the result: {"correct", "attempted", "failed", "metrics"}. Exit status is
// nonzero when any output fails verification or the trace lost spans.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace_export.hpp"
#include "tensor/dispatch.hpp"
#include "workloads.hpp"

namespace {

using perfbench::MetricMap;

/// Every per-layer metric with its unit. Workloads report the layers they
/// exercise; the layers they bypass are reported here as 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"serve.tpot_ms.p99", "ms"},
    {"serve.step_ms.p50", "ms"},
    {"serve.step_ms.p99", "ms"},
    {"serve.busy_frac", "ratio"},
    {"serve.decode_batch.mean", "rows"},
    {"serve.decode_ms_per_row", "ms"},
    {"serve.prefill_ms_per_pos", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.prefill_ms.p50", "ms"},
    {"serve.prefix_hit_frac", "ratio"},
    {"serve.preempt_per_req", "count"},
    {"serve.kv_used_frac.peak", "ratio"},
    {"serve.kv_resident_mb.peak", "MB"},
    {"loadgen.lag_ms.p99", "ms"},
    {"fi.trial_ms.p50", "ms"},
    {"fi.trial_ms.p99", "ms"},
    {"fi.prefix_hit_frac", "ratio"},
    {"fi.reused_positions_frac", "ratio"},
    {"fi.prepare_inputs_s", "s"},
    {"fi.sdc_frac", "ratio"},
    {"fi.detected_frac", "ratio"},
};

/// Largest share of a measured phase's wall time its child spans may leave
/// uncovered, and largest disagreement between the driver's own clock and
/// the spans, both in percent.
constexpr double kUnaccountedLimitPct = 2.0;
constexpr double kSplitLimitPct = 1.0;

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

std::string result_line(const perfbench::RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << metric.value << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int usage(const char* why) {
  std::cerr << "ft2_perfbench: " << why
            << "\nusage: ft2_perfbench --workload chat-ft2|rag-shared|"
               "campaign-ft2 --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Every pool is one worker wide: ThreadPool::parallel_for has a race
  // (a worker can lock the caller's done_mutex after the caller returned),
  // so a multi-worker pool aborts runs. The program's internal fallbacks to
  // ThreadPool::global() (trial generations inside run_campaign) read
  // FT2_THREADS, so it is pinned before anything creates that pool. The
  // kernel tier and the fused epilogue stay on their defaults.
  setenv("FT2_THREADS", "1", 1);
  unsetenv("FT2_KERNEL");
  unsetenv("FT2_FUSED_EPILOGUE");

  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  perfbench::RunResult (*run)(const perfbench::RunContext&) = nullptr;
  if (workload == "chat-ft2") run = perfbench::run_chat_ft2;
  if (workload == "rag-shared") run = perfbench::run_rag_shared;
  if (workload == "campaign-ft2") run = perfbench::run_campaign_ft2;
  if (run == nullptr) return usage("unknown --workload");
  if (!(seconds >= 1.0 && seconds <= 600.0)) return usage("--seconds out of range");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  ft2::ThreadPool pool(1);
  // Far above the ~10^5 spans a 60-second traced run records, so the ring
  // never wraps; the reservation stays untouched virtual memory until used.
  ft2::Tracer tracer(std::size_t{1} << 20, false);
  ft2::Tracer program_tracer(1, false);
  perfbench::RunContext ctx;
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.trace = trace == 1;
  ctx.pool = &pool;
  ctx.tracer = &tracer;
  ctx.program_tracer = &program_tracer;

  std::cout << "# host: cpu \"" << cpu_brand() << "\", nproc "
            << std::thread::hardware_concurrency() << ", kernel tier "
            << ft2::kernel_tier_name(ft2::active_kernel_tier())
            << " (auto), fused epilogue "
            << (ft2::fused_epilogue_enabled() ? "on" : "off")
            << ", pool width 1 (inline), global pool width "
            << std::max<std::size_t>(1, ft2::ThreadPool::global().size())
            << "\n# run: workload " << workload << ", seed " << seed
            << ", seconds " << seconds << ", trace " << trace << "\n";

  perfbench::RunResult r;
  try {
    if (ctx.trace) tracer.set_enabled(true);
    r = run(ctx);
    if (ctx.trace) {
      const ft2::TransformerLM model = perfbench::make_model();
      tracer.set_enabled(true);
      perfbench::probe_layers(model, ctx, r.metrics);
      tracer.set_enabled(false);
    }
  } catch (const std::exception& e) {
    std::cerr << "ft2_perfbench: " << e.what() << "\n";
    return 1;
  }

  if (ctx.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      for (const std::string& prefix : r.bypassed_layers) {
        if (std::string(name).starts_with(prefix)) r.metrics[name] = {0.0, unit};
      }
    }
    r.metrics["obs.trace_dropped"] = {static_cast<double>(tracer.dropped()),
                                      "count"};
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      ft2::write_chrome_trace(os, tracer);
      if (!os) {
        std::cerr << "ft2_perfbench: cannot write " << trace_out << "\n";
        return 1;
      }
    }
    const double unaccounted = r.metrics.at("obs.unaccounted_pct").value;
    const double split = r.metrics.at("obs.step_split_err_pct").value;
    const bool reconciled =
        unaccounted <= kUnaccountedLimitPct && split <= kSplitLimitPct;
    std::cout << "# trace: " << tracer.size() << " spans, " << tracer.dropped()
              << " dropped; unaccounted " << unaccounted << "% (limit "
              << kUnaccountedLimitPct << "%), step split error " << split
              << "% (limit " << kSplitLimitPct << "%) -> "
              << (reconciled ? "reconciled" : "NOT RECONCILED") << "\n"
              << "# tensor.*: flops and bytes computed from tensor shapes\n";
    if (tracer.dropped() != 0 || !reconciled) {
      std::cerr << "ft2_perfbench: traced run did not reconcile\n";
      return 3;
    }
  } else {
    r.metrics["success_frac"] = {
        static_cast<double>(r.attempted - r.failed) /
            static_cast<double>(r.attempted),
        "ratio"};
    r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }
  for (const auto& [name, metric] : r.metrics) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "ft2_perfbench: metric " << name << " is not finite\n";
      return 1;
    }
  }
  std::cout << result_line(r) << std::endl;
  return r.correct ? 0 : 1;
}
