#include "fi/shard.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ft2 {
namespace {

const Json& manifest_field(const Json& json, const char* key) {
  const Json* value = json.find(key);
  FT2_CHECK_MSG(value != nullptr, "shard manifest missing key '" << key << "'");
  return *value;
}

std::size_t manifest_size(const Json& json, const char* key) {
  return static_cast<std::size_t>(manifest_field(json, key).as_double());
}

}  // namespace

Json ShardManifest::to_json() const {
  Json json = Json::object();
  json["ft2_shard"] = Json(version);
  json["model"] = Json(model);
  json["model_digest"] = Json(model_digest);
  json["dataset"] = Json(dataset);
  json["scheme"] = Json(scheme);
  json["fault_model"] = Json(fault_model);
  json["vtype"] = Json(vtype);
  // The seed is a full 64-bit value; JSON numbers are doubles, so it rides
  // as a decimal string to survive the round trip exactly.
  json["campaign_seed"] = Json(std::to_string(campaign_seed));
  json["trials_per_input"] = Json(trials_per_input);
  json["gen_tokens"] = Json(gen_tokens);
  json["faults_per_trial"] = Json(faults_per_trial);
  json["n_inputs"] = Json(n_inputs);
  json["total_trials"] = Json(total_trials);
  json["shard_index"] = Json(shard_index);
  json["shard_count"] = Json(shard_count);
  json["first_trial"] = Json(first_trial);
  json["last_trial"] = Json(last_trial);
  return json;
}

ShardManifest ShardManifest::from_json(const Json& json) {
  ShardManifest m;
  m.version = static_cast<int>(manifest_field(json, "ft2_shard").as_double());
  m.model = manifest_field(json, "model").as_string();
  m.model_digest = manifest_field(json, "model_digest").as_string();
  m.dataset = manifest_field(json, "dataset").as_string();
  m.scheme = manifest_field(json, "scheme").as_string();
  m.fault_model = manifest_field(json, "fault_model").as_string();
  m.vtype = manifest_field(json, "vtype").as_string();
  m.campaign_seed = std::strtoull(
      manifest_field(json, "campaign_seed").as_string().c_str(), nullptr, 10);
  m.trials_per_input = manifest_size(json, "trials_per_input");
  m.gen_tokens = manifest_size(json, "gen_tokens");
  m.faults_per_trial = manifest_size(json, "faults_per_trial");
  m.n_inputs = manifest_size(json, "n_inputs");
  m.total_trials = manifest_size(json, "total_trials");
  m.shard_index = manifest_size(json, "shard_index");
  m.shard_count = manifest_size(json, "shard_count");
  m.first_trial = manifest_size(json, "first_trial");
  m.last_trial = manifest_size(json, "last_trial");
  return m;
}

void ShardManifest::check_compatible(const ShardManifest& other,
                                     bool same_shard) const {
  std::string mismatches;
  const auto differ = [&mismatches](const char* field, const auto& a,
                                    const auto& b) {
    if (a == b) return;
    if (!mismatches.empty()) mismatches += ", ";
    mismatches += field;
  };
  differ("model", model, other.model);
  differ("model_digest", model_digest, other.model_digest);
  differ("dataset", dataset, other.dataset);
  differ("scheme", scheme, other.scheme);
  differ("fault_model", fault_model, other.fault_model);
  differ("vtype", vtype, other.vtype);
  differ("campaign_seed", campaign_seed, other.campaign_seed);
  differ("trials_per_input", trials_per_input, other.trials_per_input);
  differ("gen_tokens", gen_tokens, other.gen_tokens);
  differ("faults_per_trial", faults_per_trial, other.faults_per_trial);
  differ("n_inputs", n_inputs, other.n_inputs);
  differ("total_trials", total_trials, other.total_trials);
  if (same_shard) {
    differ("shard_index", shard_index, other.shard_index);
    differ("shard_count", shard_count, other.shard_count);
    differ("first_trial", first_trial, other.first_trial);
    differ("last_trial", last_trial, other.last_trial);
  }
  FT2_CHECK_MSG(mismatches.empty(),
                "shard manifest mismatch (" << mismatches
                                            << ") — refusing to mix campaigns");
}

std::vector<TrialRange> partition_trials(std::size_t total,
                                         std::size_t shards) {
  FT2_CHECK_MSG(shards > 0, "partition_trials: zero shards");
  std::vector<TrialRange> ranges(shards);
  const std::size_t base = total / shards;
  const std::size_t extra = total % shards;
  std::size_t start = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::size_t size = base + (i < extra ? 1 : 0);
    ranges[i] = {start, start + size};
    start += size;
  }
  return ranges;
}

std::string shard_log_path(const std::string& dir, std::size_t index,
                           std::size_t count) {
  return dir + "/shard-" + std::to_string(index) + "-of-" +
         std::to_string(count) + ".jsonl";
}

ShardScan scan_shard_log(const std::string& path) {
  ShardScan out;
  std::ifstream is(path, std::ios::binary);
  if (!is) return out;  // missing file = fresh shard
  JsonlScan scan = scan_trial_records_jsonl(is);
  out.torn_tail = scan.torn_tail;
  out.valid_bytes = scan.valid_bytes;
  if (scan.manifests.empty()) {
    // A shard killed while writing its very first line leaves only a torn
    // manifest; that is a fresh shard, not an error. Records without any
    // manifest, though, mean this is not a shard log at all.
    FT2_CHECK_MSG(scan.records.empty(),
                  "shard log '" << path << "' has records but no manifest");
    out.valid_bytes = 0;
    return out;
  }
  FT2_CHECK_MSG(scan.manifests.size() == 1,
                "shard log '" << path << "' has " << scan.manifests.size()
                              << " manifest lines (expected 1)");
  out.has_manifest = true;
  out.manifest = ShardManifest::from_json(scan.manifests.front());
  out.records = std::move(scan.records);
  // The shard writer flushes in trial order, so an intact log is a
  // contiguous prefix of the shard's range. Anything else is corruption a
  // resume must not paper over.
  const std::size_t range =
      out.manifest.last_trial - out.manifest.first_trial;
  FT2_CHECK_MSG(out.records.size() <= range,
                "shard log '" << path << "' holds " << out.records.size()
                              << " records for a " << range << "-trial range");
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    const std::size_t expect = out.manifest.first_trial + i;
    FT2_CHECK_MSG(out.records[i].trial == expect,
                  "shard log '" << path << "' out of order: record " << i
                                << " is trial " << out.records[i].trial
                                << ", expected " << expect);
  }
  out.resume_from = out.manifest.first_trial + out.records.size();
  return out;
}

Json ShardFrame::to_json() const {
  Json json = Json::object();
  json["ft2_shard_frame"] = Json(1);
  json["shard"] = Json(shard);
  json["shards"] = Json(shards);
  json["first"] = Json(first);
  json["last"] = Json(last);
  json["done"] = Json(done);
  json["resumed"] = Json(resumed);
  json["final"] = Json(final_frame);
  Json outcomes_json = Json::object();
  for (const auto& [name, count] : outcomes) {
    outcomes_json[name] = Json(static_cast<std::size_t>(count));
  }
  json["outcomes"] = std::move(outcomes_json);
  json["metrics"] = metrics.to_json();
  return json;
}

ShardFrame ShardFrame::from_json(const Json& json) {
  FT2_CHECK_MSG(json.find("ft2_shard_frame") != nullptr,
                "not a shard telemetry frame");
  ShardFrame frame;
  frame.shard = manifest_size(json, "shard");
  frame.shards = manifest_size(json, "shards");
  frame.first = manifest_size(json, "first");
  frame.last = manifest_size(json, "last");
  frame.done = manifest_size(json, "done");
  frame.resumed = manifest_size(json, "resumed");
  frame.final_frame = manifest_field(json, "final").as_bool();
  const Json& outcomes_json = manifest_field(json, "outcomes");
  for (const std::string& name : outcomes_json.keys()) {
    frame.outcomes[name] =
        static_cast<std::uint64_t>(outcomes_json.at(name).as_double());
  }
  frame.metrics = MetricsSnapshot::from_json(manifest_field(json, "metrics"));
  return frame;
}

std::string encode_shard_frame(const ShardFrame& frame) {
  const std::string payload = frame.to_json().dump(-1);
  FT2_CHECK_MSG(payload.size() <= 0x7fffffff, "shard frame too large");
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  std::string wire(4, '\0');
  wire[0] = static_cast<char>(length & 0xff);
  wire[1] = static_cast<char>((length >> 8) & 0xff);
  wire[2] = static_cast<char>((length >> 16) & 0xff);
  wire[3] = static_cast<char>((length >> 24) & 0xff);
  wire += payload;
  return wire;
}

void ShardFrameDecoder::feed(const char* data, std::size_t n) {
  buffer_.append(data, n);
  for (;;) {
    if (buffer_.size() < 4) return;
    const auto* bytes = reinterpret_cast<const unsigned char*>(buffer_.data());
    const std::uint32_t length =
        static_cast<std::uint32_t>(bytes[0]) |
        (static_cast<std::uint32_t>(bytes[1]) << 8) |
        (static_cast<std::uint32_t>(bytes[2]) << 16) |
        (static_cast<std::uint32_t>(bytes[3]) << 24);
    if (buffer_.size() < 4 + static_cast<std::size_t>(length)) return;
    const Json payload = Json::parse(
        std::string_view(buffer_.data() + 4, length));
    frames_.push_back(ShardFrame::from_json(payload));
    buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  }
}

std::vector<ShardFrame> ShardFrameDecoder::take_frames() {
  std::vector<ShardFrame> out;
  out.swap(frames_);
  return out;
}

namespace {

std::uint64_t board_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardProgressBoard::ShardProgressBoard(std::size_t shard_count,
                                       std::size_t total_trials)
    : total_trials_(total_trials),
      latest_(shard_count),
      seen_(shard_count, false) {
  FT2_CHECK_MSG(shard_count > 0, "ShardProgressBoard: zero shards");
}

void ShardProgressBoard::update(const ShardFrame& frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  FT2_CHECK_MSG(frame.shard < latest_.size(),
                "shard frame index " << frame.shard << " out of range (board "
                                     << "has " << latest_.size()
                                     << " shards)");
  latest_[frame.shard] = frame;
  seen_[frame.shard] = true;
  if (first_update_ns_ == 0) {
    first_update_ns_ = board_now_ns();
    // Work already on disk before this run (resumed trials) predates the
    // rate window; counting it would wildly overstate trials/sec.
    std::size_t done = 0;
    for (std::size_t i = 0; i < latest_.size(); ++i) {
      if (seen_[i]) done += latest_[i].done;
    }
    first_update_done_ = done;
  }
}

ShardProgressBoard::Progress ShardProgressBoard::progress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Progress p;
  p.total = total_trials_;
  p.per_shard_done.resize(latest_.size(), 0);
  p.per_shard_total.resize(latest_.size(), 0);
  for (std::size_t i = 0; i < latest_.size(); ++i) {
    if (!seen_[i]) continue;
    ++p.shards_reporting;
    const ShardFrame& f = latest_[i];
    if (f.final_frame) ++p.shards_final;
    p.done += f.done;
    p.per_shard_done[i] = f.done;
    p.per_shard_total[i] = f.total();
    for (const auto& [name, count] : f.outcomes) p.outcomes[name] += count;
  }
  if (first_update_ns_ != 0) {
    const double elapsed =
        static_cast<double>(board_now_ns() - first_update_ns_) * 1e-9;
    const std::size_t fresh =
        p.done >= first_update_done_ ? p.done - first_update_done_ : 0;
    if (elapsed > 0.0 && fresh > 0) {
      p.trials_per_s = static_cast<double>(fresh) / elapsed;
      const std::size_t remaining = p.total >= p.done ? p.total - p.done : 0;
      p.eta_s = static_cast<double>(remaining) / p.trials_per_s;
    }
  }
  return p;
}

std::string ShardProgressBoard::progress_line() const {
  const Progress p = progress();
  std::ostringstream os;
  os << "shards " << p.shards_final << "/" << latest_.size() << " done"
     << " | trials " << p.done << "/" << p.total;
  if (p.total > 0) {
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f",
                  100.0 * static_cast<double>(p.done) /
                      static_cast<double>(p.total));
    os << " (" << pct << "%)";
  }
  if (p.trials_per_s > 0.0) {
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f", p.trials_per_s);
    os << " | " << rate << " trials/s | eta "
       << static_cast<long long>(p.eta_s + 0.5) << "s";
  }
  if (!p.outcomes.empty()) {
    os << " |";
    for (const auto& [name, count] : p.outcomes) {
      os << " " << name << " " << count;
    }
  }
  os << " | per-shard";
  for (std::size_t i = 0; i < p.per_shard_done.size(); ++i) {
    os << " " << p.per_shard_done[i] << "/" << p.per_shard_total[i];
  }
  return os.str();
}

MetricsSnapshot ShardProgressBoard::merged_locked() const {
  std::vector<MetricsSnapshot> parts;
  for (std::size_t i = 0; i < latest_.size(); ++i) {
    if (seen_[i]) parts.push_back(latest_[i].metrics);
  }
  return merge_snapshots(parts);
}

MetricsSnapshot ShardProgressBoard::telemetry_snapshot() const {
  MetricsSnapshot merged;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    merged = merged_locked();
  }
  const Progress p = progress();
  auto set_gauge = [&merged](const std::string& name, double value) {
    merged.gauges.push_back({name, value});
  };
  set_gauge("campaign.progress.done", static_cast<double>(p.done));
  set_gauge("campaign.progress.total", static_cast<double>(p.total));
  set_gauge("campaign.progress.trials_per_s", p.trials_per_s);
  set_gauge("campaign.progress.eta_s", p.eta_s);
  for (std::size_t i = 0; i < p.per_shard_done.size(); ++i) {
    set_gauge("campaign.shard.progress." + std::to_string(i),
              static_cast<double>(p.per_shard_done[i]));
  }
  std::sort(merged.gauges.begin(), merged.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return merged;
}

Json ShardProgressBoard::telemetry_json() const {
  const Progress p = progress();
  Json doc = Json::object();
  doc["ts_ms"] = Json(static_cast<std::size_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  Json progress_json = Json::object();
  progress_json["done"] = Json(p.done);
  progress_json["total"] = Json(p.total);
  progress_json["shards_reporting"] = Json(p.shards_reporting);
  progress_json["shards_final"] = Json(p.shards_final);
  progress_json["trials_per_s"] = Json(p.trials_per_s);
  progress_json["eta_s"] = Json(p.eta_s);
  Json outcomes_json = Json::object();
  for (const auto& [name, count] : p.outcomes) {
    outcomes_json[name] = Json(static_cast<std::size_t>(count));
  }
  progress_json["outcomes"] = std::move(outcomes_json);
  Json per_shard = Json::array();
  for (std::size_t i = 0; i < p.per_shard_done.size(); ++i) {
    Json row = Json::object();
    row["shard"] = Json(i);
    row["done"] = Json(p.per_shard_done[i]);
    row["total"] = Json(p.per_shard_total[i]);
    per_shard.push_back(std::move(row));
  }
  progress_json["per_shard"] = std::move(per_shard);
  doc["progress"] = std::move(progress_json);
  doc["cumulative"] = telemetry_snapshot().to_json();
  return doc;
}

namespace {

/// Worker-side frame writer: builds frames from the shard's live state
/// and writes them to the telemetry pipe, throttled to interval_ms. Any
/// write failure (EPIPE when the parent died, EBADF) permanently disables
/// emission — telemetry is advisory and must never fail the shard.
class ShardFrameEmitter {
 public:
  ShardFrameEmitter(const ShardTelemetryConfig& telemetry,
                    const ShardManifest& manifest, MetricsRegistry* metrics)
      : fd_(telemetry.enabled() ? telemetry.fd : -1),
        interval_ns_(telemetry.interval_ms * 1'000'000ull),
        manifest_(manifest),
        metrics_(metrics) {}

  void record_outcome(Outcome outcome) {
    if (fd_ < 0) return;
    ++done_;
    ++outcomes_[outcome_name(outcome)];
  }

  void set_resumed(std::size_t resumed) { resumed_ = resumed; }

  /// Emits when the throttle interval has elapsed (or `force`).
  void maybe_emit(bool force, bool final_frame = false) {
    if (fd_ < 0) return;
    const std::uint64_t now = board_now_ns();
    if (!force && last_emit_ns_ != 0 && now - last_emit_ns_ < interval_ns_) {
      return;
    }
    last_emit_ns_ = now;
    ShardFrame frame;
    frame.shard = manifest_.shard_index;
    frame.shards = manifest_.shard_count;
    frame.first = manifest_.first_trial;
    frame.last = manifest_.last_trial;
    frame.done = done_;
    frame.resumed = resumed_;
    frame.final_frame = final_frame;
    frame.outcomes = outcomes_;
    if (metrics_ != nullptr) frame.metrics = metrics_->snapshot();
    const std::string wire = encode_shard_frame(frame);
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::write(fd_, wire.data() + sent, wire.size() - sent);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        fd_ = -1;  // parent went away: stop emitting, keep running trials
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
  std::uint64_t interval_ns_;
  std::uint64_t last_emit_ns_ = 0;
  const ShardManifest& manifest_;
  MetricsRegistry* metrics_;
  std::size_t done_ = 0;
  std::size_t resumed_ = 0;
  std::map<std::string, std::uint64_t> outcomes_;
};

}  // namespace

ShardRunResult run_campaign_shard(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  const SchemeRef& scheme,
                                  const BoundStore& offline_bounds,
                                  const CampaignConfig& config,
                                  const ShardManifest& manifest,
                                  const std::string& path, bool resume,
                                  const ShardTelemetryConfig& telemetry) {
  FT2_CHECK_MSG(manifest.first_trial <= manifest.last_trial &&
                    manifest.last_trial <=
                        inputs.size() * config.trials_per_input,
                "shard range [" << manifest.first_trial << ", "
                                << manifest.last_trial
                                << ") exceeds the campaign trial space");
  ShardRunResult out;
  std::vector<TrialRecord> recovered;
  bool fresh = true;
  if (resume) {
    ShardScan scan = scan_shard_log(path);
    if (scan.has_manifest) {
      manifest.check_compatible(scan.manifest, /*same_shard=*/true);
      recovered = std::move(scan.records);
      out.torn_tail_recovered = scan.torn_tail;
      if (scan.torn_tail) {
        std::filesystem::resize_file(path, scan.valid_bytes);
      }
      fresh = false;
    }
  }

  MetricsRegistry* metrics = config.obs.metrics;
  Counter resumed_counter;
  Counter executed_counter;
  Counter torn_counter;
  if (metrics != nullptr) {
    resumed_counter = metrics->counter("campaign.shard.resumed");
    executed_counter = metrics->counter("campaign.shard.executed");
    torn_counter = metrics->counter("campaign.shard.torn_tail");
  }
  TraceSpan span = trace_span(config.obs.tracer, "campaign.shard");
  span.tag("shard", std::to_string(manifest.shard_index))
      .tag("shards", std::to_string(manifest.shard_count))
      .tag("first", std::to_string(manifest.first_trial))
      .tag("last", std::to_string(manifest.last_trial));

  std::ofstream os;
  if (fresh) {
    os.open(path, std::ios::binary | std::ios::trunc);
    FT2_CHECK_MSG(os, "cannot open shard log '" << path << "' for writing");
    manifest.to_json().write(os, -1);
    os << '\n';
    os.flush();
  } else {
    os.open(path, std::ios::binary | std::ios::app);
    FT2_CHECK_MSG(os, "cannot reopen shard log '" << path << "' to resume");
  }

  out.resumed = recovered.size();
  if (out.resumed > 0) resumed_counter.inc(out.resumed);
  if (out.torn_tail_recovered) torn_counter.inc();
  ShardFrameEmitter emitter(telemetry, manifest, metrics);
  for (const TrialRecord& r : recovered) {
    out.result.add(r.outcome);
    emitter.record_outcome(r.outcome);
  }
  emitter.set_resumed(out.resumed);
  // Initial frame: the parent learns this shard's range (and any resumed
  // progress) before the first trial lands.
  emitter.maybe_emit(/*force=*/true);

  const std::size_t resume_from = manifest.first_trial + recovered.size();
  recovered.clear();
  if (resume_from < manifest.last_trial) {
    // The campaign delivers records in trial order (TrialCallback), so
    // appending them as they arrive keeps the log's intact prefix
    // contiguous, which is what makes the resume scan trivial.
    std::size_t next = resume_from;
    const TrialCallback writer = [&](const TrialRecord& record) {
      FT2_CHECK_MSG(record.trial == next, "shard writer got trial "
                                              << record.trial << ", expected "
                                              << next);
      trial_record_to_json(record).write(os, -1);
      os << '\n';
      os.flush();
      emitter.record_outcome(record.outcome);
      ++next;
      emitter.maybe_emit(/*force=*/false);
    };
    const CampaignResult ran =
        run_campaign_range(model, inputs, scheme, offline_bounds, config,
                           resume_from, manifest.last_trial, writer);
    FT2_CHECK_MSG(next == manifest.last_trial,
                  "shard writer stalled at trial " << next << " of ["
                                                   << manifest.first_trial
                                                   << ", "
                                                   << manifest.last_trial
                                                   << ")");
    out.executed = ran.trials;
    executed_counter.inc(ran.trials);
    out.result.merge(ran);
  }
  emitter.maybe_emit(/*force=*/true, /*final_frame=*/true);
  span.tag("resumed", std::to_string(out.resumed))
      .tag("executed", std::to_string(out.executed));
  return out;
}

ShardMerge merge_shard_logs(const std::vector<std::string>& paths) {
  FT2_CHECK_MSG(!paths.empty(), "merge_shard_logs: no shard logs given");
  ShardMerge merge;
  for (const std::string& path : paths) {
    ShardScan scan = scan_shard_log(path);
    FT2_CHECK_MSG(scan.has_manifest,
                  "'" << path << "' is not a shard log (no manifest line)");
    if (!merge.manifests.empty()) {
      merge.manifests.front().check_compatible(scan.manifest,
                                               /*same_shard=*/false);
    }
    if (scan.torn_tail) ++merge.torn_tails;
    merge.manifests.push_back(std::move(scan.manifest));
    for (TrialRecord& r : scan.records) merge.records.push_back(std::move(r));
  }
  merge.total_trials = merge.manifests.front().total_trials;
  std::stable_sort(merge.records.begin(), merge.records.end(),
                   [](const TrialRecord& a, const TrialRecord& b) {
                     return a.trial < b.trial;
                   });
  std::size_t next = 0;
  std::size_t prev = SIZE_MAX;
  for (const TrialRecord& r : merge.records) {
    if (r.trial == prev) {
      ++merge.duplicate_trials;
      continue;
    }
    if (r.trial > next) merge.gaps.push_back({next, r.trial});
    prev = r.trial;
    next = r.trial + 1;
  }
  if (next < merge.total_trials) {
    merge.gaps.push_back({next, merge.total_trials});
  }
  return merge;
}

}  // namespace ft2
