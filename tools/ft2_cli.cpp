// ft2 — command-line driver for the FT2 library.
//
//   ft2 list-models
//   ft2 critical <model>
//   ft2 train <model> [--retrain]
//   ft2 generate <model> [--dataset D] [--seed N] [--n K] [--protect]
//   ft2 inject <model> [--dataset D] [--layer L] [--bit B] [--step S]
//              [--protect]
//   ft2 profile-bounds <model> [--dataset D] [--inputs N] [--out FILE]
//   ft2 campaign <model> [--dataset D] [--scheme S] [--fault-model F]
//                [--inputs N] [--trials T] [--faults K] [--bounds FILE]
//                [--trace FILE.csv] [--json FILE.json] [--weights]
//                [--metrics-out FILE.json] [--jsonl FILE.jsonl]
//                [--trace-out FILE.json] [--drift] [--clips]
//   ft2 campaign-shard <model> [--shards N] [--dir DIR] [--no-resume]
//                [--verify] [--bootstrap N] [--ci-seed S]
//                [...campaign flags but --weights]
//   ft2 serve-bench <model> [--dataset D] [--requests N] [--batch B]
//                   [--seed S] [--scheme S] [--metrics-out FILE.json]
//                   [--trace-out FILE.json]
//   ft2 serve-bench <model> --load [--requests N] [--rate HZ] [--batch B]
//                   [--seed S] [--metrics-out FILE.json]
//   ft2 top --connect HOST:PORT [--interval MS] [--iterations N] [--plain]
//   ft2 report <LOG>... [--json FILE] [--bootstrap N] [--ci-seed S]
//   ft2 metrics <model> [--dataset D] [--requests N] [--batch B] [--seed S]
//               [--scheme S] [--json FILE]
//   ft2 metric-names [--templates]
//   ft2 scheme-names [--long]
//   ft2 kernel-info [--check]
//   ft2 perf [--gpu a100|h100]
//
// Every command accepts --kernel sse|avx2|auto to force the GEMM
// dispatch tier (equivalent to FT2_KERNEL; tiers are bit-exact, see
// docs/PERFORMANCE.md).
//
// Models: opt-sm opt-xs gptj-sm llama-sm vicuna-sm qwen2-sm qwen2-xs
// Datasets: synthqa synthxqa synthmath
// Schemes: any registered detection scheme, optionally parameterized as
//   name:key=value,... (`ft2 scheme-names` lists them)
// Fault models: 1-bit 2-bit exp
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <thread>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/ft2.hpp"
#include "fi/report.hpp"
#include "fi/shard.hpp"
#include "fi/trace.hpp"
#include "fi/weight_fault.hpp"
#include "nn/weights.hpp"
#include "obs/catalog.hpp"
#include "obs/http_endpoint.hpp"
#include "obs/prom_export.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "protect/bounds_io.hpp"
#include "serve/load_gen.hpp"

using namespace ft2;
namespace pm = ft2::perfmodel;

namespace {

DatasetKind parse_dataset(const std::string& name) {
  for (DatasetKind k : all_datasets()) {
    if (name == dataset_name(k)) return k;
  }
  throw Error("unknown dataset: " + name + " (synthqa|synthxqa|synthmath)");
}


FaultModel parse_fault_model(const std::string& name) {
  if (name == "1-bit") return FaultModel::kSingleBit;
  if (name == "2-bit") return FaultModel::kDoubleBit;
  if (name == "exp" || name == "EXP") return FaultModel::kExponentBit;
  throw Error("unknown fault model: " + name + " (1-bit|2-bit|exp)");
}

/// --telemetry-port wiring shared by serve-bench and campaign: a
/// TelemetrySampler over the command's isolated registry, served by the
/// HTTP endpoint (GET /metrics, /snapshot.json, /healthz) for the
/// lifetime of the workload. Port 0 picks an ephemeral port; the bound
/// URL is printed so an operator (or `ft2 top --connect`) can attach.
class LiveTelemetry {
 public:
  void start(const MetricsRegistry* registry, const ArgParser& args) {
    if (!args.has("telemetry-port")) return;
    TelemetrySampler::Options sampler_opts;
    sampler_opts.interval_ms = args.get_size("telemetry-interval", 1000);
    sampler_.emplace(registry, sampler_opts);
    sampler_->start();
    TelemetryEndpoint::Options endpoint_opts;
    endpoint_opts.port =
        static_cast<int>(args.get_size("telemetry-port", 0));
    endpoint_.emplace(&*sampler_, endpoint_opts);
    endpoint_->start();
    std::cout << "telemetry: " << endpoint_->url()
              << " (/metrics /snapshot.json /healthz)\n";
  }

  void stop() {
    if (endpoint_) endpoint_->stop();
    if (sampler_) sampler_->stop();
  }

 private:
  std::optional<TelemetrySampler> sampler_;
  std::optional<TelemetryEndpoint> endpoint_;
};

int cmd_list_models() {
  Table table({"name", "paper model", "arch", "tasks", "cached"});
  for (const auto& e : model_zoo()) {
    std::string tasks;
    for (DatasetKind k : e.tasks) {
      if (!tasks.empty()) tasks += ",";
      tasks += dataset_name(k);
    }
    const char* arch = e.config.arch == ArchFamily::kOpt     ? "OPT"
                       : e.config.arch == ArchFamily::kGptj  ? "GPT-J"
                                                             : "Llama";
    const bool cached = checkpoint_exists(model_cache_dir() + "/" + e.name +
                                          ".ft2m");
    table.begin_row()
        .cell(e.name)
        .cell(e.paper_name)
        .cell(arch)
        .cell(tasks)
        .cell(cached ? "yes" : "no");
  }
  table.print(std::cout);
  return 0;
}

int cmd_critical(const std::string& model_name) {
  const auto& entry = zoo_entry(model_name);
  const LayerGraph graph = LayerGraph::build(entry.config);
  Table table({"layer", "critical?", "reason"});
  for (LayerKind kind : entry.config.block_layers()) {
    if (!is_linear_layer(kind)) continue;
    const bool critical = layer_is_critical(graph, kind);
    table.begin_row()
        .cell(std::string(layer_kind_name(kind)))
        .cell(critical ? "Y" : "N")
        .cell(critical
                  ? "reaches the next linear layer unguarded"
                  : "guarded by an activation / attention scaling");
  }
  table.print(std::cout);
  return 0;
}

int cmd_train(const std::string& model_name, const ArgParser& args) {
  if (args.has("retrain")) {
    std::error_code ec;
    std::filesystem::remove(model_cache_dir() + "/" + model_name + ".ft2m",
                            ec);
  }
  const auto model = ensure_model(model_name);
  for (DatasetKind task : zoo_entry(model_name).tasks) {
    const auto gen = make_generator(task);
    std::cout << dataset_name(task) << " accuracy: "
              << Table::format_pct(evaluate_accuracy(*model, *gen, 50, 1), 1)
              << "\n";
  }
  return 0;
}

int cmd_generate(const std::string& model_name, const ArgParser& args) {
  const auto model = ensure_model(model_name);
  const DatasetKind dataset = parse_dataset(args.get("dataset", "synthqa"));
  const auto gen = make_generator(dataset);
  const std::size_t n = args.get_size("n", 3);
  Xoshiro256 rng(args.get_size("seed", 1));

  InferenceSession session(*model);
  Ft2Protector protector(*model);
  if (args.has("protect")) protector.attach(session);

  GenerateOptions opts;
  opts.max_new_tokens = generation_tokens(dataset);
  opts.eos_token = Vocab::kEos;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample sample = gen->generate(rng);
    const auto out = session.generate(prompt_with_bos(sample), opts);
    std::cout << "prompt : " << sample.prompt_text << "\n"
              << "output : " << Vocab::shared().decode(out.tokens) << "\n"
              << "expect : " << sample.target_text << "\n\n";
  }
  return 0;
}

int cmd_inject(const std::string& model_name, const ArgParser& args) {
  const auto model = ensure_model(model_name);
  const DatasetKind dataset = parse_dataset(args.get("dataset", "synthqa"));
  const auto gen = make_generator(dataset);
  Xoshiro256 rng(args.get_size("seed", 1));
  const Sample sample = gen->generate(rng);
  const auto prompt = prompt_with_bos(sample);

  FaultPlan plan;
  plan.site.block = static_cast<int>(args.get_size("block", 0));
  plan.site.kind = layer_kind_from_name(args.get("layer", "V_PROJ"));
  plan.neuron = args.get_size("neuron", 0);
  plan.position = prompt.size() + args.get_size("step", 1) - 1;
  plan.flips.count = 1;
  plan.flips.bits[0] = static_cast<int>(args.get_size("bit", 14));

  InjectorHook injector(plan);
  Ft2Protector protector(*model);
  InferenceSession session(*model);
  const auto injector_reg = session.hooks().add(injector);
  if (args.has("protect")) protector.attach(session);

  GenerateOptions opts;
  opts.max_new_tokens = generation_tokens(dataset);
  opts.eos_token = -1;
  const auto out = session.generate(prompt, opts);
  std::cout << "prompt  : " << sample.prompt_text << "\n"
            << "fault   : " << layer_kind_name(plan.site.kind) << " block "
            << plan.site.block << " neuron " << plan.neuron << " bit "
            << plan.flips.bits[0] << " at position " << plan.position << "\n"
            << "injected: " << injector.original_value() << " -> "
            << injector.injected_value() << "\n"
            << "output  : "
            << Vocab::shared().decode(truncate_at_eos(out.tokens)) << "\n"
            << "expect  : " << sample.target_text << "\n";
  if (args.has("protect")) {
    std::cout << "corrected: " << protector.stats().oob_corrected
              << " out-of-bound, " << protector.stats().nan_corrected
              << " NaN\n";
  }
  return 0;
}

int cmd_profile_bounds(const std::string& model_name, const ArgParser& args) {
  const auto model = ensure_model(model_name);
  const DatasetKind dataset = parse_dataset(args.get("dataset", "synthqa"));
  const auto gen = make_generator(dataset);
  const std::size_t n = args.get_size("inputs", 16);
  OfflineProfileOptions profile;
  profile.n_inputs = n;
  profile.seed = args.get_size("seed", 555);
  profile.max_new_tokens = generation_tokens(dataset);
  const BoundStore bounds = profile_offline_bounds(*model, *gen, profile);
  const std::string out = args.get("out", model_name + ".bounds");
  save_bounds(out, bounds);
  std::cout << "profiled " << bounds.valid_count() << " sites from " << n
            << " inputs -> " << out << " (" << bounds.memory_bytes()
            << " bytes of bound state)\n";
  return 0;
}

/// What `campaign` and `campaign-shard` derive from the CLI flags alone:
/// model, dataset, scheme, inputs, bounds and the CampaignConfig fields.
/// Deterministic end to end — model cache, input sampling, reference
/// generations and bound profiling are all seeded — so independently
/// launched processes agree bit for bit.
struct CampaignSetup {
  std::shared_ptr<const TransformerLM> model;
  DatasetKind dataset = DatasetKind::kSynthQA;
  SchemeRef scheme;
  std::vector<EvalInput> inputs;
  BoundStore bounds;
  CampaignConfig config;
};

CampaignSetup prepare_campaign(const std::string& model_name,
                               const ArgParser& args) {
  CampaignSetup setup;
  setup.model = ensure_model(model_name);
  setup.dataset = parse_dataset(args.get("dataset", "synthqa"));
  setup.scheme = SchemeRef::parse(args.get("scheme", "ft2"));
  const auto gen = make_generator(setup.dataset);
  const std::size_t gen_tokens = generation_tokens(setup.dataset);

  const std::size_t n_inputs = args.get_size("inputs", 12);
  const auto samples =
      gen->generate_many(n_inputs * 3, args.get_size("seed", 20250704));
  setup.inputs = prepare_eval_inputs(*setup.model, samples, gen_tokens, true);
  if (setup.inputs.size() > n_inputs) setup.inputs.resize(n_inputs);
  FT2_CHECK_MSG(!setup.inputs.empty(), "model answers no inputs correctly");

  if (setup.scheme.needs_offline_bounds()) {
    if (args.has("bounds")) {
      setup.bounds = load_bounds(args.get("bounds", ""),
                                 setup.model->config());
    } else {
      OfflineProfileOptions profile;
      profile.seed = 555;
      profile.max_new_tokens = gen_tokens;
      setup.bounds = profile_offline_bounds(*setup.model, *gen, profile);
    }
  }

  setup.config.fault_model = parse_fault_model(args.get("fault-model", "exp"));
  setup.config.trials_per_input = args.get_size("trials", 50);
  setup.config.gen_tokens = gen_tokens;
  setup.config.seed = args.get_size("campaign-seed", 42);
  setup.config.faults_per_trial = args.get_size("faults", 1);
  if (args.has("fp32")) setup.config.vtype = ValueType::kF32;
  return setup;
}

int cmd_campaign(const std::string& model_name, const ArgParser& args) {
  if (args.has("weights")) {
    // A weight-fault campaign flips one weight bit per trial and reports
    // counts only: no trial records, metrics, spans, clips or drift. Refuse
    // the flags it would drop, before the model loads.
    for (const char* flag : {"jsonl", "faults", "trace", "json", "metrics-out",
                             "trace-out", "telemetry-port", "clips", "drift"}) {
      FT2_CHECK_MSG(!args.has(flag),
                    "--" << flag << " does not apply to --weights campaigns");
    }
    // Weights are binary16, so an FP32 weight flip has no encoding to flip.
    FT2_CHECK_MSG(!args.has("fp32"),
                  "--fp32 does not apply to --weights campaigns: weights are "
                  "stored as binary16");
  }
  CampaignSetup setup = prepare_campaign(model_name, args);
  CampaignConfig& config = setup.config;

  // Isolated registry so the snapshot contains this campaign's metrics
  // only, not whatever else ran in the process. --telemetry-port needs
  // the registry attached too (the sampler reads it live); attaching is
  // observational, so outcomes stay bit-identical either way.
  MetricsRegistry metrics_registry;
  if (args.has("metrics-out") || args.has("telemetry-port")) {
    config.obs.metrics = &metrics_registry;
  }
  config.drift_monitor = args.has("drift");
  config.capture_clips = args.has("clips");
  LiveTelemetry telemetry;
  telemetry.start(&metrics_registry, args);

  // --trace-out: campaign.trial spans into an isolated tracer, exported as
  // Chrome Trace Event JSON (chrome://tracing / Perfetto).
  Tracer tracer(default_trace_capacity(), /*enabled=*/true);
  if (args.has("trace-out")) config.obs.tracer = &tracer;

  // --jsonl: stream every trial record to disk as it finishes (flight
  // recorder); the in-memory collector still powers --trace / --json.
  std::ofstream jsonl_sink;
  if (args.has("jsonl")) {
    jsonl_sink.open(args.get("jsonl", "trials.jsonl"));
  }

  CampaignResult result;
  TraceCollector trace(jsonl_sink.is_open() ? &jsonl_sink : nullptr);
  if (args.has("weights")) {
    // Persistent weight-fault mode needs a mutable model copy.
    TransformerLM mutable_model = *setup.model;
    result = run_weight_fault_campaign(mutable_model, setup.inputs,
                                       setup.scheme, setup.bounds, config);
  } else {
    const bool want_trace =
        args.has("trace") || args.has("json") || args.has("jsonl");
    result = run_campaign(*setup.model, setup.inputs, setup.scheme,
                          setup.bounds, config,
                          want_trace ? trace.callback() : TrialCallback{});
  }
  telemetry.stop();

  Table table({"metric", "value"});
  table.begin_row().cell("trials").count(result.trials);
  table.begin_row().cell("SDC").count(result.sdc);
  table.begin_row().cell("masked (identical)").count(result.masked_identical);
  table.begin_row().cell("masked (semantic)").count(result.masked_semantic);
  table.begin_row().cell("SDC rate").cell(
      Table::format_pct(result.sdc_rate(), 3) + " +-" +
      Table::format_pct(result.sdc_ci().margin, 3));
  table.print(std::cout);

  if (args.has("trace")) {
    std::ofstream os(args.get("trace", "trace.csv"));
    trace.write_csv(os);
    std::cout << "trace -> " << args.get("trace", "trace.csv") << " ("
              << trace.size() << " rows)\n";
  }
  if (args.has("json")) {
    Json doc = Json::object();
    doc["model"] = model_name;
    doc["dataset"] = dataset_name(setup.dataset);
    doc["scheme"] = setup.scheme.display();
    doc["fault_model"] = fault_model_name(config.fault_model);
    doc["trials"] = result.trials;
    doc["sdc"] = result.sdc;
    doc["sdc_rate"] = result.sdc_rate();
    doc["trace"] = trace.to_json();
    std::ofstream os(args.get("json", "campaign.json"));
    doc.write(os);
    std::cout << "json -> " << args.get("json", "campaign.json") << "\n";
  }
  if (args.has("jsonl")) {
    std::cout << "jsonl -> " << args.get("jsonl", "trials.jsonl") << " ("
              << trace.recorded() << " records)\n";
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "metrics.json");
    std::ofstream os(path);
    metrics_registry.snapshot().to_json().write(os);
    std::cout << "metrics -> " << path << "\n";
  }
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out", "trace-events.json");
    std::ofstream os(path);
    ChromeTraceOptions trace_opts;
    trace_opts.pid_tag = "input";
    trace_opts.tid_tag = "trial";
    write_chrome_trace(os, tracer, trace_opts);
    std::cout << "trace-out -> " << path << " (" << tracer.size()
              << " spans)\n";
  }
  return 0;
}

// --- campaign-shard ----------------------------------------------------

/// Campaign state every shard worker (and the parent's --verify pass)
/// derives from the CLI flags: the campaign itself plus the shard layout.
struct ShardCampaignSetup : CampaignSetup {
  std::size_t shards = 1;
  std::size_t total_trials = 0;
  std::string dir;
};

ShardCampaignSetup prepare_shard_campaign(const std::string& model_name,
                                          const ArgParser& args) {
  CampaignSetup campaign = prepare_campaign(model_name, args);
  const std::size_t shards = args.get_size("shards", 2);
  FT2_CHECK_MSG(shards > 0, "--shards must be positive");
  const std::size_t total_trials =
      campaign.inputs.size() * campaign.config.trials_per_input;
  return {std::move(campaign), shards, total_trials,
          args.get("dir", model_name + "-shards")};
}

ShardManifest make_shard_manifest(const std::string& model_name,
                                  const ShardCampaignSetup& setup,
                                  std::size_t shard_index) {
  const std::vector<TrialRange> ranges =
      partition_trials(setup.total_trials, setup.shards);
  FT2_CHECK_MSG(shard_index < setup.shards,
                "--shard-index " << shard_index << " out of range for "
                                 << setup.shards << " shards");
  ShardManifest manifest;
  manifest.model = model_name;
  manifest.model_digest = weights_digest_hex(setup.model->export_weights());
  manifest.dataset = dataset_name(setup.dataset);
  manifest.scheme = setup.scheme.display();
  manifest.fault_model = fault_model_name(setup.config.fault_model);
  manifest.vtype = value_type_name(setup.config.vtype);
  manifest.campaign_seed = setup.config.seed;
  manifest.trials_per_input = setup.config.trials_per_input;
  manifest.gen_tokens = setup.config.gen_tokens;
  manifest.faults_per_trial = setup.config.faults_per_trial;
  manifest.n_inputs = setup.inputs.size();
  manifest.total_trials = setup.total_trials;
  manifest.shard_index = shard_index;
  manifest.shard_count = setup.shards;
  manifest.first_trial = ranges[shard_index].first;
  manifest.last_trial = ranges[shard_index].last;
  return manifest;
}

/// Applies the report CI flags (--bootstrap, --ci-seed) and builds the
/// aggregate view.
CampaignReport build_report(const std::vector<TrialRecord>& records,
                            const ArgParser& args) {
  CampaignReport report = aggregate_trial_records(records);
  report.ci.bootstrap.resamples =
      args.get_size("bootstrap", report.ci.bootstrap.resamples);
  report.ci.bootstrap.seed =
      args.get_size("ci-seed", report.ci.bootstrap.seed);
  return report;
}

void print_campaign_report(const CampaignReport& report,
                           std::size_t n_records) {
  std::cout << "outcomes (" << n_records << " records)\n";
  report.outcome_table().print(std::cout);
  std::cout << "\nby scheme (SDC reduction / overhead vs 'none')\n";
  report.scheme_table().print(std::cout);
  std::cout << "\nby layer kind\n";
  report.layer_table().print(std::cout);
  std::cout << "\nby fault model x layer x bit\n";
  report.layer_bit_table().print(std::cout);
  std::cout << "\ndetection latency (token positions)\n";
  report.latency_table().print(std::cout);
}

/// Re-launches this binary once per shard with `--shard-index i` and
/// `--telemetry-fd <write end>` appended to the original arguments, then
/// drives the telemetry loop: poll the per-worker pipes, decode frames
/// into `board`, and print a live progress line until every worker has
/// exited and closed its pipe. Returns the number of failed workers.
/// fork is immediately followed by execv, so the parent's threads never
/// matter in the child.
int spawn_shard_workers(int argc, char** argv, std::size_t shards,
                        ShardProgressBoard& board) {
  std::vector<pid_t> pids;
  std::vector<int> read_fds(shards, -1);
  for (std::size_t i = 0; i < shards; ++i) {
    int fds[2];
    FT2_CHECK_MSG(pipe(fds) == 0, "pipe failed for shard " << i);
    // The read end must not leak into any worker (a sibling holding it
    // open would stall the parent's EOF); the write end must survive
    // execv for exactly this worker. Earlier workers' write ends are
    // closed in the parent before the next fork, so each child inherits
    // only its own.
    fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    std::vector<std::string> child_args;
    child_args.emplace_back("/proc/self/exe");
    for (int a = 1; a < argc; ++a) child_args.emplace_back(argv[a]);
    child_args.emplace_back("--shard-index");
    child_args.emplace_back(std::to_string(i));
    child_args.emplace_back("--telemetry-fd");
    child_args.emplace_back(std::to_string(fds[1]));
    std::vector<char*> child_argv;
    child_argv.reserve(child_args.size() + 1);
    for (std::string& arg : child_args) child_argv.push_back(arg.data());
    child_argv.push_back(nullptr);
    const pid_t pid = fork();
    FT2_CHECK_MSG(pid >= 0, "fork failed for shard " << i);
    if (pid == 0) {
      execv("/proc/self/exe", child_argv.data());
      _exit(127);  // execv only returns on failure
    }
    close(fds[1]);
    read_fds[i] = fds[0];
    pids.push_back(pid);
  }

  // Telemetry loop: workers run until their pipes hit EOF (process exit
  // closes the write end). A worker whose frames stop parsing loses its
  // live view only — the shard log, merge and report are unaffected.
  std::vector<ShardFrameDecoder> decoders(shards);
  std::size_t open_fds = shards;
  const bool tty = isatty(STDOUT_FILENO) != 0;
  const auto start = std::chrono::steady_clock::now();
  auto last_print = start - std::chrono::hours(1);
  std::size_t printed_width = 0;
  while (open_fds > 0) {
    std::vector<pollfd> pfds;
    std::vector<std::size_t> owners;
    for (std::size_t i = 0; i < shards; ++i) {
      if (read_fds[i] < 0) continue;
      pfds.push_back({read_fds[i], POLLIN, 0});
      owners.push_back(i);
    }
    const int ready = poll(pfds.data(), pfds.size(), 200);
    if (ready < 0 && errno != EINTR) break;
    for (std::size_t p = 0; p < pfds.size(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t i = owners[p];
      char buf[65536];
      const ssize_t n = read(read_fds[i], buf, sizeof(buf));
      if (n > 0) {
        try {
          decoders[i].feed(buf, static_cast<std::size_t>(n));
          for (const ShardFrame& frame : decoders[i].take_frames()) {
            board.update(frame);
          }
        } catch (const Error& e) {
          std::cerr << "shard " << i << " telemetry stream corrupt ("
                    << e.what() << "); dropping its live view\n";
          close(read_fds[i]);
          read_fds[i] = -1;
          --open_fds;
        }
      } else if (n == 0 || (n < 0 && errno != EINTR)) {
        close(read_fds[i]);
        read_fds[i] = -1;
        --open_fds;
      }
    }
    const auto now = std::chrono::steady_clock::now();
    // Live progress: a tty gets an in-place refresh twice a second; a
    // pipe (CI logs) gets a fresh line every two seconds.
    const auto min_gap =
        tty ? std::chrono::milliseconds(500) : std::chrono::milliseconds(2000);
    if (now - last_print >= min_gap) {
      last_print = now;
      const std::string line = board.progress_line();
      if (tty) {
        std::cout << "\r" << line;
        for (std::size_t pad = line.size(); pad < printed_width; ++pad) {
          std::cout << ' ';
        }
        std::cout << std::flush;
        printed_width = line.size();
      } else {
        std::cout << line << "\n" << std::flush;
      }
    }
  }
  const std::string line = board.progress_line();
  if (tty) {
    std::cout << "\r" << line;
    for (std::size_t pad = line.size(); pad < printed_width; ++pad) {
      std::cout << ' ';
    }
    std::cout << "\n";
  } else {
    std::cout << line << "\n";
  }

  int failures = 0;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    waitpid(pids[i], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "shard " << i << " worker failed (status " << status
                << ")\n";
      ++failures;
    }
  }
  return failures;
}

/// Zeroes trial_ms in place: timing is observational and excluded from
/// determinism comparisons, so --verify compares everything else.
void strip_timing(std::vector<TrialRecord>& records) {
  for (TrialRecord& r : records) r.trial_ms = 0.0;
}

int cmd_campaign_shard(const std::string& model_name, const ArgParser& args,
                       int argc, char** argv) {
  // Shards run activation-fault campaigns only; a sharded weight-fault
  // campaign would silently measure the wrong fault model.
  FT2_CHECK_MSG(!args.has("weights"),
                "--weights does not apply to campaign-shard (run weight-fault "
                "campaigns with `ft2 campaign --weights`)");
  if (args.has("shard-index")) {
    // Worker: rebuild the campaign deterministically, then run (or
    // resume) this shard's range, streaming records to its log. When the
    // parent handed us a telemetry pipe (--telemetry-fd), progress
    // frames flow back on it; SIGPIPE is ignored so a dead parent shows
    // up as an EPIPE write error the emitter absorbs, never a crash.
    const ShardCampaignSetup setup = prepare_shard_campaign(model_name, args);
    const std::size_t index = args.get_size("shard-index", 0);
    const ShardManifest manifest = make_shard_manifest(model_name, setup,
                                                       index);
    std::filesystem::create_directories(setup.dir);
    const std::string path =
        shard_log_path(setup.dir, index, setup.shards);
    // The frames carry this worker's campaign.*, protect.* and
    // campaign.shard.* metrics, so a piped worker gives its campaign a
    // registry of its own.
    ShardTelemetryConfig shard_telemetry;
    CampaignConfig config = setup.config;
    MetricsRegistry registry;
    if (args.has("telemetry-fd")) {
      signal(SIGPIPE, SIG_IGN);
      shard_telemetry.fd = static_cast<int>(args.get_size("telemetry-fd", 0));
      shard_telemetry.interval_ms = args.get_size("telemetry-interval", 250);
      config.obs.metrics = &registry;
    }
    const ShardRunResult run = run_campaign_shard(
        *setup.model, setup.inputs, setup.scheme, setup.bounds, config,
        manifest, path, /*resume=*/!args.has("no-resume"), shard_telemetry);
    if (shard_telemetry.enabled()) close(shard_telemetry.fd);
    std::cout << "shard " << index << "/" << setup.shards << " ["
              << manifest.first_trial << ", " << manifest.last_trial
              << "): resumed " << run.resumed << ", executed "
              << run.executed
              << (run.torn_tail_recovered ? ", torn tail truncated" : "")
              << " -> " << path << "\n";
    return 0;
  }

  // Parent: make sure the model cache is warm (workers must never race a
  // training run), fan out the workers, drive the live progress board
  // off their telemetry pipes, then merge their logs. --telemetry-port
  // additionally serves the merged board view over HTTP while workers
  // run.
  const ShardCampaignSetup setup = prepare_shard_campaign(model_name, args);
  std::filesystem::create_directories(setup.dir);
  std::cout << "campaign-shard: " << setup.total_trials << " trials over "
            << setup.shards << " shards -> " << setup.dir << "\n";
  ShardProgressBoard board(setup.shards, setup.total_trials);
  std::optional<TelemetryEndpoint> endpoint;
  if (args.has("telemetry-port")) {
    TelemetryEndpoint::Options endpoint_opts;
    endpoint_opts.port =
        static_cast<int>(args.get_size("telemetry-port", 0));
    endpoint.emplace(&board, endpoint_opts);
    endpoint->start();
    std::cout << "telemetry: " << endpoint->url()
              << " (/metrics /snapshot.json /healthz)\n";
  }
  const int failures = spawn_shard_workers(argc, argv, setup.shards, board);
  if (endpoint) endpoint->stop();

  std::vector<std::string> paths;
  for (std::size_t i = 0; i < setup.shards; ++i) {
    paths.push_back(shard_log_path(setup.dir, i, setup.shards));
  }
  const ShardMerge merge = merge_shard_logs(paths);
  std::cout << "merged " << merge.records.size() << "/" << merge.total_trials
            << " trials from " << paths.size() << " shard logs";
  if (merge.torn_tails > 0) {
    std::cout << " (" << merge.torn_tails << " torn tails)";
  }
  std::cout << "\n";
  for (const TrialRange& gap : merge.gaps) {
    std::cout << "  gap: trials [" << gap.first << ", " << gap.last << ")\n";
  }
  if (merge.duplicate_trials > 0) {
    std::cout << "  duplicates: " << merge.duplicate_trials << " records\n";
  }

  const CampaignReport report = build_report(merge.records, args);
  print_campaign_report(report, merge.records.size());

  if (args.has("json")) {
    const std::string path = args.get("json", "campaign-shard.json");
    Json doc = report.to_json();
    Json shard_doc = Json::object();
    shard_doc["shards"] = setup.shards;
    shard_doc["total_trials"] = merge.total_trials;
    shard_doc["merged_trials"] = merge.records.size();
    shard_doc["torn_tails"] = merge.torn_tails;
    shard_doc["duplicates"] = merge.duplicate_trials;
    shard_doc["complete"] = merge.complete();
    doc["shard_merge"] = std::move(shard_doc);
    std::ofstream os(path);
    doc.write(os);
    std::cout << "\njson -> " << path << "\n";
  }

  if (args.has("verify")) {
    // In-process reference: the same campaign run whole, in this process,
    // with prefix reuse off — every trial a full replay from token 0. The
    // workers fork and rejoin the fault-free recording, so merged-shard
    // records matching it bit for bit (timing aside) also checks reuse.
    FT2_CHECK_MSG(merge.complete() && failures == 0,
                  "--verify needs a complete merge with no failed workers");
    CampaignConfig reference_config = setup.config;
    reference_config.prefix_reuse = false;
    TraceCollector reference;
    run_campaign(*setup.model, setup.inputs, setup.scheme, setup.bounds,
                 reference_config, reference.callback());
    std::vector<TrialRecord> expect = reference.records();
    std::vector<TrialRecord> got = merge.records;
    strip_timing(expect);
    strip_timing(got);
    const std::string expect_dump =
        aggregate_trial_records(expect).to_json().dump(-1);
    const std::string got_dump =
        aggregate_trial_records(got).to_json().dump(-1);
    bool records_equal = expect.size() == got.size();
    for (std::size_t i = 0; records_equal && i < expect.size(); ++i) {
      records_equal = trial_record_to_json(expect[i]).dump(-1) ==
                      trial_record_to_json(got[i]).dump(-1);
    }
    if (expect_dump != got_dump || !records_equal) {
      std::cerr << "verify: merged shards DIVERGE from the in-process run\n";
      return 1;
    }
    std::cout << "verify: merged shards match the in-process campaign ("
              << expect.size() << " records, reports identical)\n";
  }
  return failures == 0 ? 0 : 1;
}

/// `ft2 serve-bench --load`: open-loop synthetic production trace against
/// the paged engine (src/serve/load_gen.hpp). Reports TTFT / inter-token
/// percentiles measured from intended arrival times; --metrics-out
/// additionally dumps the serve.* registry (serve.request.ttft_ms /
/// serve.token.gap_ms histograms and the serve.kv.* pool gauges).
int cmd_serve_load(const std::string& model_name, const ArgParser& args) {
  const auto model = ensure_model(model_name);
  const std::size_t max_batch = args.get_size("batch", 16);

  LoadSpec spec;
  spec.n_requests = args.get_size("requests", 64);
  spec.arrival_rate_hz = args.get_double("rate", 150.0);
  spec.bursty = true;
  spec.prompt_max =
      std::min<std::size_t>(model->config().max_seq / 2, 160);
  spec.shared_fraction = 0.5;
  spec.interactive_fraction = 0.25;
  spec.seed = args.get_size("seed", 1);
  const auto load = build_load(spec, model->config().vocab_size);

  MetricsRegistry registry;
  ServeOptions serve_opts;
  serve_opts.max_batch = max_batch;
  serve_opts.prefill_chunk_budget = 32;
  serve_opts.share_prefix = true;
  if (args.has("metrics-out") || args.has("telemetry-port")) {
    serve_opts.obs.metrics = &registry;
  }
  LiveTelemetry telemetry;
  telemetry.start(&registry, args);
  ServeEngine engine(*model, serve_opts);
  const LoadReport r = run_load(engine, load);
  telemetry.stop();

  Table table({"metric", "value"});
  table.begin_row().cell("offered requests").count(r.offered);
  table.begin_row().cell("completed").count(r.completed);
  table.begin_row().cell("dropped tokens").count(r.dropped_tokens);
  table.begin_row().cell("wall s").num(r.wall_s, 2);
  table.begin_row().cell("tokens/s").num(r.tokens_per_s, 1);
  table.begin_row().cell("ttft p50 ms").num(r.ttft_p50_ms, 1);
  table.begin_row().cell("ttft p99 ms").num(r.ttft_p99_ms, 1);
  table.begin_row().cell("token gap p50 ms").num(r.gap_p50_ms, 2);
  table.begin_row().cell("token gap p99 ms").num(r.gap_p99_ms, 2);
  table.begin_row().cell("peak active").count(r.peak_active);
  table.begin_row().cell("peak kv blocks").count(r.peak_kv_blocks);
  table.begin_row().cell("preemptions").count(r.preemptions);
  table.begin_row().cell("shared prefix rows").count(r.shared_prefix_rows);
  table.print(std::cout);
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "metrics.json");
    std::ofstream os(path);
    registry.snapshot().to_json().write(os);
    std::cout << "metrics -> " << path << "\n";
  }
  return r.dropped_tokens == 0 && r.completed == r.offered ? 0 : 1;
}

int cmd_serve_bench(const std::string& model_name, const ArgParser& args) {
  if (args.has("load")) return cmd_serve_load(model_name, args);
  const auto model = ensure_model(model_name);
  const DatasetKind dataset = parse_dataset(args.get("dataset", "synthqa"));
  const auto gen = make_generator(dataset);
  const std::size_t n_requests = args.get_size("requests", 8);
  const std::size_t max_batch = args.get_size("batch", 8);
  Xoshiro256 rng(args.get_size("seed", 1));

  GenerateOptions opts;
  opts.max_new_tokens = generation_tokens(dataset);
  opts.eos_token = Vocab::kEos;
  std::vector<std::vector<int>> prompts;
  prompts.reserve(n_requests);
  for (std::size_t i = 0; i < n_requests; ++i) {
    prompts.push_back(prompt_with_bos(gen->generate(rng)));
  }

  // --metrics-out: both paths run with protection attached (the token
  // comparison stays bit-exact because both see the same hooks), the engine
  // publishes to an isolated registry, and the snapshot is written as JSON.
  // Only the batched path's protection hooks feed the registry, so the
  // protect.* counters in the snapshot match the engine-side hook stats.
  const bool want_metrics = args.has("metrics-out");
  MetricsRegistry registry;
  // --telemetry-port attaches the registry (the sampler reads it live)
  // without the protection hooks --metrics-out adds, so generated tokens
  // are bit-identical with telemetry on or off.
  const bool want_registry = want_metrics || args.has("telemetry-port");
  LiveTelemetry telemetry;
  telemetry.start(&registry, args);
  const SchemeRef scheme = SchemeRef::parse(args.get("scheme", "ft2"));
  FT2_CHECK_MSG(!scheme.needs_offline_bounds(),
                "ft2 serve-bench supports online schemes only ("
                    << scheme.name << " needs profiled bounds)");

  // --trace-out: serve.prefill / serve.decode_step spans into an isolated
  // tracer, exported as Chrome Trace Event JSON with one pid per request
  // and one tid per batch slot.
  Tracer tracer(default_trace_capacity(), /*enabled=*/true);

  // Sequential baseline: one InferenceSession per request, back to back.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<GenerateResult> serial;
  serial.reserve(n_requests);
  for (const auto& prompt : prompts) {
    InferenceSession session(*model);
    std::optional<ProtectionHook> hook;
    std::optional<HookRegistration> reg;
    if (want_metrics) {
      hook.emplace(model->config(), scheme.instantiate(model->config()),
                   ObsSinks{});
      reg.emplace(session.hooks().add(*hook));
    }
    serial.push_back(session.generate(prompt, opts));
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Continuous batching: all requests through one engine.
  ServeOptions serve_opts;
  serve_opts.max_batch = max_batch;
  if (want_registry) serve_opts.obs.metrics = &registry;
  if (args.has("trace-out")) serve_opts.obs.tracer = &tracer;
  ServeEngine engine(*model, serve_opts);
  std::vector<ProtectionHook> batch_hooks;
  std::vector<HookRegistration> batch_regs;
  if (want_metrics) {
    batch_hooks.reserve(n_requests);  // chains hold raw hook pointers
    batch_regs.reserve(n_requests);
  }
  std::vector<RequestId> ids;
  ids.reserve(n_requests);
  for (const auto& prompt : prompts) {
    const RequestId id = engine.submit(prompt, opts);
    if (want_metrics) {
      batch_hooks.emplace_back(model->config(),
                               scheme.instantiate(model->config()),
                               ObsSinks{&registry, nullptr});
      batch_regs.push_back(engine.hooks(id).add(batch_hooks.back()));
    }
    ids.push_back(id);
  }
  engine.run();
  const auto t2 = std::chrono::steady_clock::now();
  telemetry.stop();

  std::size_t mismatches = 0;
  std::size_t total_tokens = 0;
  for (std::size_t i = 0; i < n_requests; ++i) {
    if (engine.result(ids[i]).tokens != serial[i].tokens) ++mismatches;
    total_tokens += serial[i].tokens.size();
  }

  const double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double batched_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  const ServeCounters& c = engine.counters();
  Table table({"metric", "value"});
  table.begin_row().cell("requests").count(n_requests);
  table.begin_row().cell("generated tokens").count(total_tokens);
  table.begin_row().cell("sequential ms").num(serial_ms, 1);
  table.begin_row().cell("batched ms").num(batched_ms, 1);
  table.begin_row().cell("speedup").num(
      batched_ms > 0.0 ? serial_ms / batched_ms : 0.0, 2);
  table.begin_row().cell("decode steps").count(c.decode_steps);
  table.begin_row().cell("avg decode batch").num(c.avg_decode_batch(), 2);
  table.begin_row().cell("peak active").count(c.max_active);
  table.begin_row().cell("peak queue depth").count(c.max_queue_depth);
  table.begin_row().cell("token mismatches").count(mismatches);
  table.print(std::cout);
  if (want_metrics) {
    const std::string path = args.get("metrics-out", "metrics.json");
    std::ofstream os(path);
    registry.snapshot().to_json().write(os);
    std::cout << "metrics -> " << path << "\n";
  }
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out", "trace-events.json");
    std::ofstream os(path);
    write_chrome_trace(os, tracer);  // default request/slot tags
    std::cout << "trace-out -> " << path << " (" << tracer.size()
              << " spans)\n";
  }
  return mismatches == 0 ? 0 : 1;
}

int cmd_metrics(const std::string& model_name, const ArgParser& args) {
  const auto model = ensure_model(model_name);
  const DatasetKind dataset = parse_dataset(args.get("dataset", "synthqa"));
  const auto gen = make_generator(dataset);
  const std::size_t n_requests = args.get_size("requests", 4);
  const SchemeRef scheme = SchemeRef::parse(args.get("scheme", "ft2"));
  Xoshiro256 rng(args.get_size("seed", 1));

  // A short protected serve workload into an isolated registry, then the
  // full snapshot as a table (or JSON with --json): a live tour of the
  // serve.* and protect.* metric names.
  MetricsRegistry registry;
  ServeOptions serve_opts;
  serve_opts.max_batch = args.get_size("batch", 4);
  serve_opts.obs.metrics = &registry;
  ServeEngine engine(*model, serve_opts);

  GenerateOptions opts;
  opts.max_new_tokens = generation_tokens(dataset);
  opts.eos_token = Vocab::kEos;

  FT2_CHECK_MSG(!scheme.needs_offline_bounds(),
                "ft2 metrics supports online schemes only ("
                    << scheme.name << " needs profiled bounds)");
  std::vector<ProtectionHook> hooks;
  hooks.reserve(n_requests);  // chains hold raw hook pointers
  std::vector<HookRegistration> regs;
  regs.reserve(n_requests);
  for (std::size_t i = 0; i < n_requests; ++i) {
    hooks.emplace_back(model->config(), scheme.instantiate(model->config()),
                       ObsSinks{&registry, nullptr});
    const RequestId id =
        engine.submit(prompt_with_bos(gen->generate(rng)), opts);
    regs.push_back(engine.hooks(id).add(hooks.back()));
  }
  engine.run();

  const MetricsSnapshot snap = registry.snapshot();
  snap.to_table().print(std::cout);
  if (args.has("json")) {
    const std::string path = args.get("json", "metrics.json");
    std::ofstream os(path);
    snap.to_json().write(os);
    std::cout << "json -> " << path << "\n";
  }
  return 0;
}

/// True when `path` opens and its first non-blank line is a shard
/// manifest (an object carrying the "ft2_shard" marker key).
bool is_shard_log(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const Json first = Json::parse(line);
      return first.is_object() && first.find("ft2_shard") != nullptr;
    } catch (const Error&) {
      return false;
    }
  }
  return false;
}

int cmd_report(const ArgParser& args) {
  // Aggregate recorded campaign logs (CSV / JSON / JSONL) into the
  // paper-style breakdowns. The outcome counts equal the CampaignResult of
  // the run that produced the logs — no trial is rerun. Multiple paths
  // that are all shard logs merge with gap/overlap detection; otherwise
  // the logs simply concatenate.
  const std::vector<std::string>& paths = args.positional();
  std::vector<TrialRecord> records;
  bool all_shards = true;
  for (const std::string& path : paths) {
    all_shards = all_shards && is_shard_log(path);
  }
  if (all_shards) {
    ShardMerge merge = merge_shard_logs(paths);
    std::cout << "shard merge: " << merge.records.size() << "/"
              << merge.total_trials << " trials from " << paths.size()
              << " logs";
    if (merge.torn_tails > 0) {
      std::cout << " (" << merge.torn_tails << " torn tails)";
    }
    std::cout << "\n";
    for (const TrialRange& gap : merge.gaps) {
      std::cout << "  gap: trials [" << gap.first << ", " << gap.last
                << ")\n";
    }
    if (merge.duplicate_trials > 0) {
      std::cout << "  duplicates: " << merge.duplicate_trials
                << " records\n";
    }
    records = std::move(merge.records);
  } else {
    for (const std::string& path : paths) {
      std::vector<TrialRecord> loaded = load_trial_records(path);
      for (TrialRecord& r : loaded) records.push_back(std::move(r));
    }
  }
  const CampaignReport report = build_report(records, args);
  print_campaign_report(report, records.size());

  if (args.has("json")) {
    const std::string path = args.get("json", "report.json");
    std::ofstream os(path);
    report.to_json().write(os);
    std::cout << "\njson -> " << path << "\n";
  }
  return 0;
}

int cmd_metric_names(const ArgParser& args) {
  // One name per line: the dump tools/docs_check.sh verifies doc metric
  // references against. --templates emits the un-expanded template names
  // (placeholders intact) — the reverse docs gate checks each of those
  // has a row in docs/OBSERVABILITY.md.
  const std::vector<std::string> names =
      args.has("templates") ? metric_template_names() : all_metric_names();
  for (const std::string& name : names) {
    std::cout << name << "\n";
  }
  return 0;
}

// --- ft2 top -----------------------------------------------------------

/// One dashboard frame rendered from two consecutive /snapshot.json
/// polls: per-interval rates from the local delta, instantaneous gauges
/// from the newest snapshot, plus the shard progress block when the
/// remote side is a campaign-shard parent.
void render_top_frame(std::ostream& os, const Json& doc,
                      const TelemetrySample& prev,
                      const TelemetrySample& next) {
  const TelemetryInterval interval = derive_interval(prev, next);
  const MetricsSnapshot& snap = next.snapshot;
  char buf[128];

  os << "interval " << std::fixed;
  std::snprintf(buf, sizeof(buf), "%.1fs", interval.seconds);
  os << buf << "\n";

  if (const Json* progress = doc.find("progress")) {
    os << "\ncampaign progress\n";
    std::snprintf(buf, sizeof(buf), "  trials   %.0f/%.0f\n",
                  progress->at("done").as_double(),
                  progress->at("total").as_double());
    os << buf;
    std::snprintf(buf, sizeof(buf), "  rate     %.1f trials/s  eta %.0fs\n",
                  progress->at("trials_per_s").as_double(),
                  progress->at("eta_s").as_double());
    os << buf;
  }

  const auto rate_row = [&](const char* label, std::string_view counter) {
    std::snprintf(buf, sizeof(buf), "  %-22s %10.1f/s\n", label,
                  interval.counter_rate(counter));
    os << buf;
  };
  const auto hist_row = [&](const char* label, std::string_view name) {
    const MetricsSnapshot::HistogramValue* h = interval.find_histogram(name);
    if (h == nullptr || h->count == 0) return;
    std::snprintf(buf, sizeof(buf),
                  "  %-22s p50 %8.2f  p95 %8.2f  p99 %8.2f  (n=%llu)\n",
                  label, h->quantile(0.5), h->quantile(0.95),
                  h->quantile(0.99),
                  static_cast<unsigned long long>(h->count));
    os << buf;
  };
  const auto gauge_row = [&](const char* label, std::string_view name) {
    const MetricsSnapshot::GaugeValue* g = snap.find_gauge(name);
    if (g == nullptr) return;
    std::snprintf(buf, sizeof(buf), "  %-22s %10.0f\n", label, g->value);
    os << buf;
  };

  if (snap.find_counter("serve.tokens.generated") != nullptr) {
    os << "\nserve (interval rates)\n";
    rate_row("tokens/s", "serve.tokens.generated");
    rate_row("requests done/s", "serve.requests.completed");
    rate_row("preemptions/s", "serve.preemptions");
    hist_row("ttft ms", "serve.request.ttft_ms");
    hist_row("token gap ms", "serve.token.gap_ms");
    hist_row("decode step ms", "serve.decode.step_ms");
    gauge_row("batch occupancy", "serve.batch.occupancy");
    gauge_row("kv blocks used", "serve.kv.blocks_used");
    gauge_row("kv blocks free", "serve.kv.blocks_free");
  }

  // protect.*: sum the per-kind counters into one detection-rate view.
  double checked_per_s = 0.0, oob_per_s = 0.0, nan_per_s = 0.0;
  double mismatch_per_s = 0.0;
  for (const auto& c : interval.counters) {
    if (c.name.rfind("protect.checked.", 0) == 0) checked_per_s += c.per_sec;
    if (c.name.rfind("protect.oob.", 0) == 0) oob_per_s += c.per_sec;
    if (c.name.rfind("protect.nan.", 0) == 0) nan_per_s += c.per_sec;
    if (c.name.rfind("protect.checksum_mismatch.", 0) == 0) {
      mismatch_per_s += c.per_sec;
    }
  }
  if (checked_per_s > 0.0 || oob_per_s > 0.0 || mismatch_per_s > 0.0) {
    os << "\nprotect (interval rates, all kinds)\n";
    std::snprintf(buf, sizeof(buf), "  %-22s %10.0f/s\n", "values checked",
                  checked_per_s);
    os << buf;
    std::snprintf(buf, sizeof(buf), "  %-22s %10.2f/s\n", "oob clipped",
                  oob_per_s);
    os << buf;
    std::snprintf(buf, sizeof(buf), "  %-22s %10.2f/s\n", "nan corrected",
                  nan_per_s);
    os << buf;
    if (mismatch_per_s > 0.0) {
      std::snprintf(buf, sizeof(buf), "  %-22s %10.2f/s\n",
                    "checksum mismatches", mismatch_per_s);
      os << buf;
    }
  }

  if (snap.find_counter("campaign.trials") != nullptr) {
    os << "\ncampaign (interval rates)\n";
    rate_row("trials/s", "campaign.trials");
    rate_row("sdc/s", "campaign.outcome.sdc");
    hist_row("trial ms", "campaign.trial_ms");
  }
}

int cmd_top(const ArgParser& args) {
  const std::string connect = args.get("connect", "");
  FT2_CHECK_MSG(!connect.empty(),
                "ft2 top needs --connect HOST:PORT (e.g. 127.0.0.1:9100)");
  const std::size_t colon = connect.rfind(':');
  FT2_CHECK_MSG(colon != std::string::npos && colon + 1 < connect.size(),
                "--connect wants HOST:PORT, got '" << connect << "'");
  const std::string host = connect.substr(0, colon);
  const int port = std::atoi(connect.c_str() + colon + 1);
  const std::size_t interval_ms = args.get_size("interval", 1000);
  // --iterations bounds the dashboard (tests, one-shot checks); 0 runs
  // until q+Enter or Ctrl-C.
  const std::size_t iterations = args.get_size("iterations", 0);
  const bool plain = args.has("plain");

  TelemetrySample prev;
  bool have_prev = false;
  // Closed/EOF stdin (piped runs, CI) makes poll() return instantly
  // forever; detect it once and fall back to a plain sleep.
  bool watch_stdin = true;
  for (std::size_t i = 0; iterations == 0 || i < iterations; ++i) {
    const HttpResponse r = http_get(host, port, "/snapshot.json");
    if (r.status != 200) {
      std::cerr << "ft2 top: GET /snapshot.json failed (status " << r.status
                << "): " << r.body << "\n";
      return 1;
    }
    const Json doc = Json::parse(r.body);
    TelemetrySample sample;
    sample.steady_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    sample.wall_ms =
        static_cast<std::uint64_t>(doc.at("ts_ms").as_double());
    sample.snapshot = MetricsSnapshot::from_json(doc.at("cumulative"));

    std::ostringstream frame;
    frame << "ft2 top — " << host << ":" << port
          << " (poll " << interval_ms << "ms; q+Enter or Ctrl-C quits)\n";
    render_top_frame(frame, doc, have_prev ? prev : sample, sample);
    if (!plain) std::cout << "\033[2J\033[H";  // clear + home
    std::cout << frame.str() << std::flush;
    prev = std::move(sample);
    have_prev = true;

    if (iterations != 0 && i + 1 == iterations) break;
    // Sleep the poll interval, watching stdin for 'q'.
    if (watch_stdin) {
      pollfd pfd{STDIN_FILENO, POLLIN, 0};
      const auto sleep_start = std::chrono::steady_clock::now();
      const int ready = poll(&pfd, 1, static_cast<int>(interval_ms));
      if (ready > 0 && (pfd.revents & POLLIN) != 0) {
        char buf[64];
        const ssize_t n = read(STDIN_FILENO, buf, sizeof(buf));
        for (ssize_t b = 0; b < n; ++b) {
          if (buf[b] == 'q' || buf[b] == 'Q') return 0;
        }
        if (n <= 0) watch_stdin = false;  // EOF: stop polling stdin
      } else if (ready > 0) {
        watch_stdin = false;  // POLLHUP/POLLERR: same
      }
      if (!watch_stdin) {
        // Finish the remainder of this tick's interval without stdin.
        const auto elapsed = std::chrono::duration_cast<
            std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                       sleep_start);
        const auto remaining =
            std::chrono::milliseconds(interval_ms) - elapsed;
        if (remaining.count() > 0) std::this_thread::sleep_for(remaining);
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

int cmd_scheme_names(const ArgParser& args) {
  // One registered scheme name per line (registration order). The bare dump
  // is what tools/docs_check.sh verifies doc scheme references against;
  // --long adds the registry summaries for humans.
  if (args.has("long")) {
    Table table({"scheme", "offline bounds", "summary"});
    for (const SchemeInfo& info : SchemeRegistry::instance().entries()) {
      table.begin_row()
          .cell(info.name)
          .cell(info.needs_offline_bounds ? "required" : "-")
          .cell(info.summary);
    }
    table.print(std::cout);
    return 0;
  }
  for (const std::string& name : all_scheme_names()) {
    std::cout << name << "\n";
  }
  return 0;
}

int cmd_perf(const ArgParser& args) {
  const pm::GpuSpec gpu =
      args.get("gpu", "a100") == "h100" ? pm::h100() : pm::a100();
  Table table({"model", "params (B)", "prefill(256) ms", "ms/token",
               "QA inference s", "first-token share"});
  for (const auto& m : pm::paper_models()) {
    table.begin_row()
        .cell(m.name)
        .num(static_cast<double>(pm::param_count(m)) / 1e9, 2)
        .num(pm::prefill_seconds(m, gpu, 256) * 1e3, 1)
        .num(pm::decode_seconds(m, gpu, 256) * 1e3, 1)
        .num(pm::inference_seconds(m, gpu, 256, 60), 2)
        .pct(pm::first_token_fraction(m, gpu, 256, 60));
  }
  std::cout << "GPU: " << gpu.name << "\n";
  table.print(std::cout);
  return 0;
}

/// Per-tier bit-equality self-test: on every host-supported tier, the
/// packed GEMM must reproduce the scalar reference chain (acc += x[i] *
/// w[o][i], ascending i, no FMA) and the packed chunked-accumulation chain
/// its scalar reference, both on row-major binary16-grid weights and
/// off-grid FP32 inputs at 1 to 9 rows; the attention kernels, the
/// quantize sweep and the binary16 round and widen sweeps their scalar
/// references too, and exp_span detail::expf_ref.
int kernel_check() {
  const KernelTier restore = active_kernel_tier();
  int failures = 0;
  ThreadPool pool(2);
  for (KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    const char* name = kernel_tier_name(tier);

    // GEMM: odd shape, so the tiles end in a partial tile and the k tail
    // of the chunked chain is not empty; rows 1-9, so the AVX2 tier's
    // 512-bit four-row body (on AVX-512F hosts) runs with every leftover
    // row count. Weights sit on the binary16 grid, as packing stores them;
    // inputs stay off it. Dividing by 509 leaves most products inexact, so
    // a fused multiply-add rounds differently from the multiply then add.
    const std::size_t n = 100, k = 33;
    std::uint64_t sm = 0xF72F72F7ULL;
    auto next_float = [&sm]() {
      return static_cast<float>(static_cast<std::int64_t>(
                 splitmix64(sm) % 4001) - 2000) / 509.0f;
    };
    std::size_t gemm_bad = 0;
    for (std::size_t rows = 1; rows <= 9; ++rows) {
      Tensor x({rows, k}), w({n, k}), y({rows, n}), y_ref({rows, n});
      Tensor y_chunked({rows, n}), y_chunked_ref({rows, n});
      std::vector<float> bias(n);
      for (float& v : x.span()) v = next_float();
      for (float& v : w.span()) v = quantize_f16(next_float());
      for (float& v : bias) v = next_float();
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t o = 0; o < n; ++o) {
          float acc = bias[o];
          const float* xr = x.row(r).data();
          const float* wr = w.row(o).data();
          for (std::size_t i = 0; i < k; ++i) acc += xr[i] * wr[i];
          y_ref.row(r)[o] = acc;
          // Chunked: eight k-strided partial sums, the k tail on the
          // bias, then the pairwise reduction.
          float part[8] = {};
          std::size_t i = 0;
          for (; i + 8 <= k; i += 8) {
            for (std::size_t l = 0; l < 8; ++l) {
              part[l] += wr[i + l] * xr[i + l];
            }
          }
          acc = bias[o];
          for (; i < k; ++i) acc += wr[i] * xr[i];
          y_chunked_ref.row(r)[o] =
              acc + ((part[0] + part[4]) + (part[2] + part[6])) +
              ((part[1] + part[5]) + (part[3] + part[7]));
        }
      }
      const PackedLinear pl(w, bias);
      linear_forward_span_packed(x, rows, pl, y, pool);
      linear_forward_span_packed(x, rows, pl, y_chunked, pool,
                                 /*chunked_accum=*/true);
      for (std::size_t i = 0; i < y_ref.numel(); ++i) {
        if (f32_bits(y[i]) != f32_bits(y_ref[i])) ++gemm_bad;
        if (f32_bits(y_chunked[i]) != f32_bits(y_chunked_ref[i])) ++gemm_bad;
      }
    }

    // Attention kernels on one run of cached rows: 13 heads (an 8-head
    // group, a 4-head group and a scalar head) of 14 dims (8- and 4-wide
    // P·V passes and a 2-dim tail) over 19 keys (8 + 8 + 2 + 1 in flight),
    // keys head-interleaved. Key and value row 4 hold an Inf, rows 2 and
    // 5 NaNs behind +0 and -0 probabilities (only the zero skip keeps
    // them out of P·V).
    std::size_t attn_bad = 0;
    {
      const std::size_t keys = 19, heads = 13, head = 14, d = heads * head;
      const float inf = std::numeric_limits<float>::infinity();
      const float nan = std::numeric_limits<float>::quiet_NaN();
      std::vector<float> kc(keys * d), vc(keys * d), q(d), p(keys * heads);
      for (float& v : kc) v = next_float();
      for (float& v : vc) v = next_float();
      for (float& v : q) v = next_float();
      for (float& v : p) v = std::fabs(next_float()) / 4.0f;
      kc[4 * d + 3] = inf;
      vc[4 * d + 3] = inf;
      for (const std::size_t j : {std::size_t{2}, std::size_t{5}}) {
        std::fill_n(kc.begin() + j * d, d, nan);
        std::fill_n(vc.begin() + j * d, d, nan);
        std::fill_n(p.begin() + j * heads, heads, j == 2 ? 0.0f : -0.0f);
      }
      const KernelOps& ops = active_kernel_ops();
      std::vector<float> s(keys * heads);
      ops.qk_heads(q.data(), kc.data(), keys, heads, head, s.data());
      for (std::size_t j = 0; j < keys; ++j) {
        for (std::size_t h = 0; h < heads; ++h) {
          float acc = 0.0f;
          for (std::size_t i = 0; i < head; ++i) {
            acc += kc[j * d + i * heads + h] * q[i * heads + h];
          }
          if (f32_bits(s[j * heads + h]) != f32_bits(acc)) ++attn_bad;
        }
      }
      std::vector<float> y(d, 0.5f), y_ref(d, 0.5f);
      ops.pv_heads(p.data(), vc.data(), keys, heads, head, y.data());
      for (std::size_t j = 0; j < keys; ++j) {
        for (std::size_t h = 0; h < heads; ++h) {
          const float pj = p[j * heads + h];
          if (pj == 0.0f) continue;
          for (std::size_t c = 0; c < head; ++c) {
            y_ref[h * head + c] += pj * vc[j * d + h * head + c];
          }
        }
      }
      for (std::size_t i = 0; i < d; ++i) {
        if (f32_bits(y[i]) != f32_bits(y_ref[i])) ++attn_bad;
      }
    }

    // Quantize: every f16 seed pattern in f32 form plus NaN payloads and
    // rounding/overflow boundaries, dispatched vs scalar quantize_f16.
    std::vector<float> q;
    q.reserve(1 << 17);
    for (std::uint32_t h = 0; h < (1u << 16); ++h) {
      q.push_back(f16::from_bits(static_cast<std::uint16_t>(h)).to_float());
    }
    const float specials[] = {65504.0f,   65519.9f,  65520.0f, -65520.0f,
                              1e-8f,      -1e-8f,    1.0009765f, 0.0f,
                              -0.0f,      3.14159e5f};
    q.insert(q.end(), std::begin(specials), std::end(specials));
    q.push_back(f32_from_bits(0x7FC01234u));  // NaN payloads survive
    q.push_back(f32_from_bits(0xFFC00000u));
    q.push_back(f32_from_bits(0x7F800001u));  // signalling NaN
    for (int i = 0; i < 4096; ++i) q.push_back(f32_from_bits(
        static_cast<std::uint32_t>(splitmix64(sm))));
    // Binary16 round (packing) on the same inputs against f16::from_float,
    // and widen (the GEMM's weights) of every pattern against
    // f16::to_float.
    std::size_t f16_bad = 0;
    {
      std::vector<std::uint16_t> h(q.size());
      active_kernel_ops().round_f16_span(q.data(), h.data(), q.size());
      for (std::size_t i = 0; i < q.size(); ++i) {
        if (h[i] != f16::from_float(q[i]).bits()) ++f16_bad;
      }
      h.resize(1u << 16);
      for (std::uint32_t b = 0; b < (1u << 16); ++b) {
        h[b] = static_cast<std::uint16_t>(b);
      }
      std::vector<float> wide(h.size());
      active_kernel_ops().widen_f16_span(h.data(), wide.data(), h.size());
      for (std::uint32_t b = 0; b < (1u << 16); ++b) {
        if (f32_bits(wide[b]) !=
            f32_bits(f16::from_bits(static_cast<std::uint16_t>(b)).to_float())) {
          ++f16_bad;
        }
      }
    }

    std::vector<float> q_ref = q;
    for (float& v : q_ref) v = quantize_f16(v);
    quantize_span_f16(q);
    std::size_t quant_bad = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (f32_bits(q[i]) != f32_bits(q_ref[i])) ++quant_bad;
    }

    // exp_span: the same inputs plus expf_ref's thresholds, out of place
    // and in place (an odd length leaves a tail), against expf_ref.
    std::vector<float> e = q;
    for (const std::uint32_t bits :
         {0x42b00000u, 0xc2b00000u, 0x42b17217u, 0x42b17218u, 0xc2cff1b4u,
          0xc2cff1b5u, 0xff800000u, 0x7f800000u, 0x80000001u}) {
      e.push_back(f32_from_bits(bits));
    }
    std::vector<float> e_out(e.size());
    active_kernel_ops().exp_span(e.data(), e_out.data(), e.size());
    std::vector<float> e_in = e;
    active_kernel_ops().exp_span(e_in.data(), e_in.data(), e_in.size());
    std::size_t exp_bad = 0;
    for (std::size_t i = 0; i < e.size(); ++i) {
      const std::uint32_t want = f32_bits(detail::expf_ref(e[i]));
      if (f32_bits(e_out[i]) != want) ++exp_bad;
      if (f32_bits(e_in[i]) != want) ++exp_bad;
    }

    if (gemm_bad != 0 || attn_bad != 0 || quant_bad != 0 || f16_bad != 0 ||
        exp_bad != 0) {
      ++failures;
      std::cout << name << ": FAIL (" << gemm_bad << " gemm mismatches, "
                << attn_bad << " attention mismatches, " << quant_bad
                << " quantize mismatches, " << f16_bad
                << " binary16 round/widen mismatches, " << exp_bad
                << " exp_span mismatches)\n";
    } else {
      std::cout << name << ": OK (packed gemm + packed chunked gemm + "
                           "qk_heads + pv_heads + quantize + binary16 "
                           "round/widen + exp_span bit-exact)\n";
    }
  }
  set_kernel_tier(restore);
  return failures;
}

int cmd_kernel_info(const ArgParser& args) {
  Table table({"tier", "compiled", "cpu", "active"});
  for (std::size_t t = 0; t < kKernelTierCount; ++t) {
    const KernelTier tier = static_cast<KernelTier>(t);
    table.begin_row()
        .cell(kernel_tier_name(tier))
        .cell(kernel_tier_compiled(tier) ? "yes" : "no")
        .cell(kernel_tier_supported(tier) ? "yes" : "no")
        .cell(tier == active_kernel_tier() ? "*" : "");
  }
  table.print(std::cout);
  std::cout << "tile cols: " << kTileCols << " (every tier)\n";
  std::cout << "gemm: " << active_kernel_ops().gemm_body << "\n";
  if (!args.has("check")) return 0;
  const int failures = kernel_check();
  if (failures != 0) {
    std::cout << failures << " tier(s) FAILED the equivalence check\n";
    return 1;
  }
  std::cout << "all supported tiers bit-exact\n";
  return 0;
}

int usage() {
  std::string schemes;
  for (const std::string& name : all_scheme_names()) {
    if (!schemes.empty()) schemes += " ";
    schemes += name;
  }
  std::cout <<
      "ft2 — FT2 fault-tolerance toolkit\n"
      "  ft2 list-models\n"
      "  ft2 critical <model>\n"
      "  ft2 train <model> [--retrain]\n"
      "  ft2 generate <model> [--dataset D] [--seed N] [--n K] [--protect]\n"
      "  ft2 inject <model> [--dataset D] [--layer L] [--block B] [--neuron I]\n"
      "             [--bit B] [--step S] [--protect]\n"
      "  ft2 profile-bounds <model> [--dataset D] [--inputs N] [--out FILE]\n"
      "  ft2 campaign <model> [--dataset D] [--scheme S] [--fault-model F]\n"
      "               [--inputs N] [--trials T] [--faults K] [--fp32]\n"
      "               [--bounds FILE] [--trace FILE] [--json FILE] [--weights]\n"
      "               [--metrics-out FILE] [--jsonl FILE] [--trace-out FILE]\n"
      "               [--drift] [--clips] [--telemetry-port P]\n"
      "  ft2 campaign-shard <model> [--shards N] [--dir DIR] [--dataset D]\n"
      "               [--scheme S] [--fault-model F] [--inputs N]\n"
      "               [--trials T] [--faults K] [--fp32] [--bounds FILE]\n"
      "               [--no-resume] [--verify] [--json FILE]\n"
      "               [--bootstrap N] [--ci-seed S] [--telemetry-port P]\n"
      "  ft2 serve-bench <model> [--dataset D] [--requests N] [--batch B]\n"
      "                  [--seed S] [--scheme S] [--metrics-out FILE]\n"
      "                  [--trace-out FILE] [--telemetry-port P]\n"
      "  ft2 serve-bench <model> --load [--requests N] [--rate HZ]\n"
      "                  [--batch B] [--seed S] [--metrics-out FILE]\n"
      "                  [--telemetry-port P]\n"
      "  ft2 top --connect HOST:PORT [--interval MS] [--iterations N]\n"
      "          [--plain]\n"
      "  ft2 report <LOG.csv|.json|.jsonl>... [--json FILE] [--bootstrap N]\n"
      "             [--ci-seed S]\n"
      "  ft2 metrics <model> [--dataset D] [--requests N] [--batch B]\n"
      "              [--seed S] [--scheme S] [--json FILE]\n"
      "  ft2 metric-names [--templates]\n"
      "  ft2 scheme-names [--long]\n"
      "  ft2 kernel-info [--check]\n"
      "  ft2 perf [--gpu a100|h100]\n"
      "global: --kernel sse|avx2|auto forces the dispatch tier\n"
      "        (same as FT2_KERNEL; see docs/PERFORMANCE.md)\n"
      "        --telemetry-port P serves live /metrics, /snapshot.json and\n"
      "        /healthz on 127.0.0.1:P while the workload runs (0 picks an\n"
      "        ephemeral port; --telemetry-interval MS tunes the sampler)\n"
      "schemes (S accepts name or name:key=value,...):\n"
      "  " << schemes << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::map<std::string, bool> spec = {
      {"retrain", false},     {"dataset", true},  {"seed", true},
      {"n", true},            {"protect", false}, {"layer", true},
      {"block", true},        {"neuron", true},   {"bit", true},
      {"step", true},         {"inputs", true},   {"out", true},
      {"scheme", true},       {"fault-model", true}, {"trials", true},
      {"faults", true},       {"bounds", true},   {"trace", true},
      {"json", true},         {"weights", false}, {"gpu", true},
      {"campaign-seed", true}, {"fp32", false}, {"requests", true},
      {"batch", true},        {"metrics-out", true}, {"jsonl", true},
      {"trace-out", true},    {"drift", false},   {"clips", false},
      {"long", false},        {"shards", true},   {"shard-index", true},
      {"dir", true},          {"no-resume", false}, {"verify", false},
      {"bootstrap", true},    {"ci-seed", true},  {"kernel", true},
      {"check", false},       {"load", false},    {"rate", true},
      {"telemetry-port", true}, {"telemetry-interval", true},
      {"telemetry-fd", true}, {"templates", false}, {"connect", true},
      {"interval", true},     {"iterations", true}, {"plain", false},
  };
  try {
    const ArgParser args(argc - 2, argv + 2, spec);
    // --kernel forces the dispatch tier for every command (same semantics
    // as FT2_KERNEL; throws on unknown/unsupported names).
    if (args.has("kernel")) set_kernel_tier_name(args.get("kernel", "auto"));
    auto need_model = [&]() -> std::string {
      FT2_CHECK_MSG(!args.positional().empty(),
                    "command '" << command << "' needs a model name");
      return args.positional()[0];
    };
    if (command == "list-models") return cmd_list_models();
    if (command == "critical") return cmd_critical(need_model());
    if (command == "train") return cmd_train(need_model(), args);
    if (command == "generate") return cmd_generate(need_model(), args);
    if (command == "inject") return cmd_inject(need_model(), args);
    if (command == "profile-bounds") {
      return cmd_profile_bounds(need_model(), args);
    }
    if (command == "campaign") return cmd_campaign(need_model(), args);
    if (command == "campaign-shard") {
      return cmd_campaign_shard(need_model(), args, argc, argv);
    }
    if (command == "serve-bench") return cmd_serve_bench(need_model(), args);
    if (command == "report") {
      FT2_CHECK_MSG(!args.positional().empty(),
                    "report needs at least one recorded trial log path");
      return cmd_report(args);
    }
    if (command == "metrics") return cmd_metrics(need_model(), args);
    if (command == "metric-names") return cmd_metric_names(args);
    if (command == "top") return cmd_top(args);
    if (command == "kernel-info") return cmd_kernel_info(args);
    if (command == "scheme-names") return cmd_scheme_names(args);
    if (command == "perf") return cmd_perf(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
