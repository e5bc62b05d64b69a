// Trial trace recording: the campaign flight recorder.
//
// TrialRecords serialize to three equivalent formats — a JSON array, CSV,
// and streaming JSONL (one compact JSON object per line, written as trials
// finish so a crashed campaign still leaves a usable log). All three share
// ONE field-ordering source of truth (trial_record_fields() in trace.cpp):
// CSV columns and JSON keys are the same names in the same order, and
// every format round-trips through read_trial_records_*, so `ft2 report`
// can aggregate any of them.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "fi/campaign.hpp"

namespace ft2 {

constexpr const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kMaskedIdentical: return "masked_identical";
    case Outcome::kMaskedSemantic: return "masked_semantic";
    case Outcome::kSdc: return "sdc";
    case Outcome::kNotInjected: return "not_injected";
  }
  return "unknown";
}

/// Inverse of outcome_name (throws ft2::Error on an unknown name).
Outcome outcome_from_name(std::string_view name);

/// Inverse of fault_model_name / value_type_name (throw on unknown names).
FaultModel fault_model_from_name(std::string_view name);
ValueType value_type_from_name(std::string_view name);

/// One TrialRecord as a JSON object — keys in the shared field order.
Json trial_record_to_json(const TrialRecord& record);

/// Parses a record from a JSON object (as produced by trial_record_to_json
/// or a CSV row lifted to strings). Missing new-style keys default, so logs
/// recorded before a field existed still load.
TrialRecord trial_record_from_json(const Json& json);

/// Readers for the three serialized formats. CSV expects the header line
/// written by TraceCollector::write_csv; JSONL expects one object per line
/// (blank lines skipped, `"ft2_shard"` manifest lines ignored); the JSON
/// reader takes a parsed array document.
///
/// The JSONL reader is strict about torn tails: a final line without a
/// trailing newline is a partial write from a killed process, and it is
/// rejected with ft2::Error even when the fragment happens to parse as
/// valid JSON for a prefix of the record's fields. Use
/// scan_trial_records_jsonl to recover the intact prefix instead.
std::vector<TrialRecord> read_trial_records_csv(std::istream& is);
std::vector<TrialRecord> read_trial_records_jsonl(std::istream& is);
std::vector<TrialRecord> read_trial_records_json(const Json& array);

/// Tolerant JSONL scan for crash recovery: everything the resume path
/// needs to know about a possibly-torn shard log.
struct JsonlScan {
  std::vector<TrialRecord> records;  ///< intact records, file order
  std::vector<Json> manifests;       ///< `"ft2_shard"`-marked header lines
  /// Bytes of intact, newline-terminated content. Truncating the file to
  /// this length removes the torn tail and nothing else.
  std::size_t valid_bytes = 0;
  bool torn_tail = false;  ///< a partial trailing record was dropped
  std::string torn_line;   ///< the dropped fragment, for diagnostics
};

/// Scans a JSONL stream, splitting intact lines from a torn tail.
///
/// A torn tail is a final line missing its newline, or a final
/// newline-terminated line that fails to parse (a crash can flush the
/// newline without the whole line). Unparseable lines anywhere *before*
/// the final line are corruption, not tearing, and throw ft2::Error.
JsonlScan scan_trial_records_jsonl(std::istream& is);

/// Collects TrialRecords; use `collector.callback()` as the campaign's
/// on_trial argument, then serialize.
///
/// Bounded-memory streaming: construct with a sink stream and the
/// collector appends one JSONL line per record as it arrives (under the
/// campaign's serialized-callback lock), retaining at most `max_records`
/// in memory — a multi-million-trial campaign records everything to disk
/// while holding O(max_records) RAM. `recorded()` counts every record ever
/// seen; `records()` returns the retained prefix.
class TraceCollector {
 public:
  TraceCollector() = default;
  explicit TraceCollector(std::ostream* sink,
                          std::size_t max_records = SIZE_MAX)
      : sink_(sink), max_records_(max_records) {}

  TrialCallback callback() {
    return [this](const TrialRecord& r) { add(r); };
  }

  /// Records one trial: streams it to the sink (if any) and retains it in
  /// memory up to the cap.
  void add(const TrialRecord& record);

  const std::vector<TrialRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  /// Total records ever added (>= size() once the cap truncates).
  std::size_t recorded() const { return recorded_; }
  void clear() {
    records_.clear();
    recorded_ = 0;
  }

  /// One CSV row per trial, with a header line (column order = the shared
  /// field order).
  void write_csv(std::ostream& os) const;

  /// JSON array of trial objects (key order = the shared field order).
  Json to_json() const;

  /// One compact JSON object per line (the same lines the streaming sink
  /// receives).
  void write_jsonl(std::ostream& os) const;


 private:
  std::vector<TrialRecord> records_;
  std::ostream* sink_ = nullptr;
  std::size_t max_records_ = SIZE_MAX;
  std::size_t recorded_ = 0;
};

}  // namespace ft2
