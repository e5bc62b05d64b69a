// Multi-process campaign sharding: partition, resume, merge.
//
// A sharded campaign splits the trial space [0, total_trials) into N
// contiguous ranges, one per worker process. Each worker streams its
// TrialRecords to a per-shard JSONL file whose FIRST line is a shard
// manifest (a JSON object carrying the `"ft2_shard"` marker key) pinning
// the campaign identity: model + weights digest, dataset, scheme, fault
// model, seed, trial geometry and the shard's range. Because every trial
// draws from its own Philox stream, disjoint ranges compose exactly — the
// merged shard logs ARE the whole-campaign log, bit for bit.
//
// Resume contract: a restarted shard scans its partial log, truncates a
// torn tail (a record cut mid-write by the kill), verifies the manifest
// against the campaign it was relaunched with (mismatched seed / scheme /
// model digest => ft2::Error, never a silently mixed log), and continues
// from the first missing trial index. Records are flushed in trial order,
// so the intact prefix of a shard log is always [first_trial, resume_from).
// Live shard telemetry (this file, lower half): each worker process
// periodically writes a length-prefixed JSON snapshot frame to a per-
// worker pipe, and the parent feeds the bytes through ShardFrameDecoder
// into a ShardProgressBoard — a merged live view (per-shard trials done,
// aggregate trials/sec, outcome mix, ETA) that also implements
// TelemetrySource so the same HTTP endpoint that serves a single process
// can serve a whole sharded campaign. Frames are advisory: losing one
// (slow pipe, dead parent) never affects trial execution or the shard log.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "fi/campaign.hpp"
#include "fi/trace.hpp"
#include "obs/telemetry.hpp"

namespace ft2 {

/// Campaign identity + shard geometry, serialized as the first line of
/// every shard log. Identity fields decide resume/merge compatibility;
/// geometry fields locate this shard in the trial space.
struct ShardManifest {
  int version = 1;

  // --- campaign identity (must match to resume or merge) ---------------
  std::string model;         ///< zoo name, e.g. "opt-xs"
  std::string model_digest;  ///< weights_digest_hex of the loaded weights
  std::string dataset;
  std::string scheme;       ///< SchemeRef::display()
  std::string fault_model;  ///< fault_model_name()
  std::string vtype;        ///< value_type_name()
  std::uint64_t campaign_seed = 0;
  std::size_t trials_per_input = 0;
  std::size_t gen_tokens = 0;
  std::size_t faults_per_trial = 1;
  std::size_t n_inputs = 0;
  std::size_t total_trials = 0;  ///< n_inputs * trials_per_input

  // --- shard geometry ---------------------------------------------------
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t first_trial = 0;
  std::size_t last_trial = 0;  ///< exclusive

  /// Serialized with the `"ft2_shard"` marker key so JSONL readers can
  /// tell manifest lines from TrialRecord lines.
  Json to_json() const;
  static ShardManifest from_json(const Json& json);

  /// Throws ft2::Error naming every mismatched identity field (and, when
  /// `same_shard` is set, mismatched shard geometry). Used both by resume
  /// (disk manifest vs relaunch manifest, same_shard = true) and by merge
  /// (pairwise across shard logs, same_shard = false).
  void check_compatible(const ShardManifest& other, bool same_shard) const;
};

/// One contiguous trial range, [first, last).
struct TrialRange {
  std::size_t first = 0;
  std::size_t last = 0;
  std::size_t size() const { return last - first; }
};

/// Contiguous partition of [0, total) into `shards` ranges whose sizes
/// differ by at most one (earlier shards get the remainder). Throws on
/// zero shards; tolerates shards > total (trailing ranges come out empty).
std::vector<TrialRange> partition_trials(std::size_t total,
                                         std::size_t shards);

/// Canonical shard log filename: `<dir>/shard-<index>-of-<count>.jsonl`.
std::string shard_log_path(const std::string& dir, std::size_t index,
                           std::size_t count);

/// What a resume scan found in an existing shard log.
struct ShardScan {
  bool has_manifest = false;  ///< false = empty/missing/headerless file
  ShardManifest manifest;     ///< valid only when has_manifest
  /// Intact records: a contiguous, in-order prefix of the shard's range
  /// (the writer flushes in trial order, so anything else is corruption).
  std::vector<TrialRecord> records;
  bool torn_tail = false;       ///< a partial trailing record was found
  std::size_t valid_bytes = 0;  ///< truncate here to drop the torn tail
  std::size_t resume_from = 0;  ///< first missing absolute trial index
};

/// Scans an existing shard log tolerantly (missing file => fresh scan; a
/// torn trailing record is reported, not rejected). Mid-file corruption —
/// unparseable interior lines, out-of-order or non-contiguous trial
/// indices, records outside the manifest range — throws ft2::Error.
ShardScan scan_shard_log(const std::string& path);

struct ShardRunResult {
  CampaignResult result;  ///< whole shard range (recovered + executed)
  std::size_t resumed = 0;   ///< trials recovered from the existing log
  std::size_t executed = 0;  ///< trials actually run by this invocation
  bool torn_tail_recovered = false;
};

/// Worker-side telemetry wiring for run_campaign_shard: when `fd` is a
/// valid pipe write end, the shard emits a ShardFrame there at start, at
/// most every `interval_ms` while trials flush, and once at completion.
/// A broken pipe (parent gone) silently stops emission — telemetry must
/// never fail a shard.
struct ShardTelemetryConfig {
  int fd = -1;
  std::size_t interval_ms = 250;

  bool enabled() const { return fd >= 0; }
};

/// One worker progress frame: shard identity + trial progress + outcome
/// tallies + a full metrics snapshot of the worker's registry (empty when
/// the campaign runs without one).
struct ShardFrame {
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t first = 0;
  std::size_t last = 0;  ///< exclusive
  std::size_t done = 0;  ///< trials complete in [first, last), incl. resumed
  std::size_t resumed = 0;
  bool final_frame = false;  ///< the shard's last frame before exit
  /// outcome_name -> count over the trials this shard has completed.
  std::map<std::string, std::uint64_t> outcomes;
  MetricsSnapshot metrics;

  std::size_t total() const { return last - first; }

  /// Serialized with the `"ft2_shard_frame"` marker key.
  Json to_json() const;
  static ShardFrame from_json(const Json& json);
};

/// Wire format: 4-byte little-endian payload length, then the compact
/// JSON payload. Length-prefixing keeps frames intact across the pipe's
/// arbitrary read boundaries.
std::string encode_shard_frame(const ShardFrame& frame);

/// Incremental decoder for one worker's pipe byte stream. feed() any
/// chunk sizes (partial frames buffer internally); take_frames() drains
/// the complete frames decoded so far, in arrival order. A malformed
/// payload throws ft2::Error.
class ShardFrameDecoder {
 public:
  void feed(const char* data, std::size_t n);
  std::vector<ShardFrame> take_frames();
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::vector<ShardFrame> frames_;
};

/// Parent-side merged view over every worker's latest frame. update() is
/// thread-safe; the board implements TelemetrySource, so the parent can
/// serve the merged campaign view on the same HTTP endpoint a single
/// process uses. Synthetic gauges summarize progress for /metrics:
/// campaign.progress.{done,total,trials_per_s,eta_s} and
/// campaign.shard.progress.<N> per shard.
class ShardProgressBoard : public TelemetrySource {
 public:
  ShardProgressBoard(std::size_t shard_count, std::size_t total_trials);

  void update(const ShardFrame& frame);

  struct Progress {
    std::size_t done = 0;
    std::size_t total = 0;
    std::size_t shards_reporting = 0;
    std::size_t shards_final = 0;
    double trials_per_s = 0.0;  ///< since the first frame arrived
    double eta_s = -1.0;        ///< -1 before a usable rate exists
    std::map<std::string, std::uint64_t> outcomes;
    std::vector<std::size_t> per_shard_done;  ///< indexed by shard
    std::vector<std::size_t> per_shard_total;
  };
  Progress progress() const;

  /// One-line human render of progress(), e.g.
  /// "shards 2/3 done | trials 1234/5000 (24.7%) | 81.2 trials/s | eta 46s
  ///  | sdc 12 masked 983 | per-shard 412/1667 410/1667 412/1666".
  std::string progress_line() const;

  // TelemetrySource over the merged worker snapshots + progress gauges.
  MetricsSnapshot telemetry_snapshot() const override;
  Json telemetry_json() const override;

 private:
  MetricsSnapshot merged_locked() const;

  mutable std::mutex mutex_;
  std::size_t total_trials_;
  std::vector<ShardFrame> latest_;  ///< latest frame per shard (by index)
  std::vector<bool> seen_;
  std::uint64_t first_update_ns_ = 0;
  std::size_t first_update_done_ = 0;  ///< resumed work predating this run
};

/// Runs (or resumes) one shard: scans `path` when `resume` is set,
/// validates its manifest against `manifest`, truncates a torn tail,
/// appends the manifest line to a fresh log, then runs
/// run_campaign_range(resume_from, last_trial) streaming records to the
/// log in trial order (each line flushed as written, so a kill at any
/// moment loses at most the line being written). Emits campaign.shard.*
/// metrics and one campaign.shard span through `config.obs` (null sinks
/// publish nothing), plus live ShardFrames per `telemetry` when enabled;
/// each frame snapshots `config.obs.metrics`.
ShardRunResult run_campaign_shard(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  const SchemeRef& scheme,
                                  const BoundStore& offline_bounds,
                                  const CampaignConfig& config,
                                  const ShardManifest& manifest,
                                  const std::string& path,
                                  bool resume = true,
                                  const ShardTelemetryConfig& telemetry = {});

/// Result of merging shard logs back into one campaign view.
struct ShardMerge {
  std::vector<ShardManifest> manifests;  ///< one per input log, input order
  std::vector<TrialRecord> records;      ///< sorted by trial index
  std::vector<TrialRange> gaps;  ///< trial ranges no log covered
  /// Records beyond the first for an already-covered trial index.
  std::size_t duplicate_trials = 0;
  std::size_t torn_tails = 0;        ///< logs that ended mid-record
  std::size_t total_trials = 0;      ///< expected, from the manifests

  bool complete() const { return gaps.empty() && duplicate_trials == 0; }
};

/// Merges shard logs: every log must carry a manifest, and all manifests
/// must agree on campaign identity (ft2::Error otherwise — overlapping or
/// gapped coverage is reported in the result, identity mismatch is not
/// mergeable at all). Torn tails are tolerated; their lost records show
/// up as gaps.
ShardMerge merge_shard_logs(const std::vector<std::string>& paths);

}  // namespace ft2
