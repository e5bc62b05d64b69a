#include "fi/trace.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "protect/bounds_io.hpp"

namespace ft2 {

Outcome outcome_from_name(std::string_view name) {
  for (Outcome o : {Outcome::kMaskedIdentical, Outcome::kMaskedSemantic,
                    Outcome::kSdc, Outcome::kNotInjected}) {
    if (name == outcome_name(o)) return o;
  }
  throw Error("unknown outcome name '" + std::string(name) + "'");
}

FaultModel fault_model_from_name(std::string_view name) {
  for (FaultModel m : all_fault_models()) {
    if (name == fault_model_name(m)) return m;
  }
  throw Error("unknown fault model name '" + std::string(name) + "'");
}

ValueType value_type_from_name(std::string_view name) {
  if (name == value_type_name(ValueType::kF16)) return ValueType::kF16;
  if (name == value_type_name(ValueType::kF32)) return ValueType::kF32;
  throw Error("unknown value type name '" + std::string(name) + "'");
}

namespace {

std::string bits_string(const BitFlips& flips) {
  std::string out;
  for (int i = 0; i < flips.count; ++i) {
    if (!out.empty()) out += '+';
    out += std::to_string(flips.bits[i]);
  }
  return out;
}

BitFlips bits_from_string(const std::string& text) {
  BitFlips flips;
  if (text.empty()) return flips;
  // '+'-separated bit indices, each one or two decimal digits below 32;
  // an empty piece (a leading, doubled or trailing '+') is malformed.
  for (std::size_t start = 0;;) {
    const std::size_t plus = text.find('+', start);
    const std::string piece = text.substr(start, plus - start);
    FT2_CHECK_MSG(flips.count < static_cast<int>(flips.bits.size()),
                  "too many bit flips in '" << text << "'");
    FT2_CHECK_MSG(!piece.empty() && piece.size() <= 2 &&
                      piece.find_first_not_of("0123456789") ==
                          std::string::npos &&
                      std::stoi(piece) < 32,
                  "bad bit index '" << piece << "' in '" << text << "'");
    flips.bits[static_cast<std::size_t>(flips.count++)] = std::stoi(piece);
    if (plus == std::string::npos) return flips;
    start = plus + 1;
  }
}

/// %.9g float encoding: round-trips every float exactly and — unlike a
/// JSON number — survives inf/nan (Json::write emits null for those).
std::string float_string(float value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  return buf;
}

float float_from_string(const std::string& text) {
  return std::strtof(text.c_str(), nullptr);
}

/// An integer field in [lo, hi] (by default a count or index up to 2^53,
/// the largest a JSON number holds exactly): a JSON number, or text (a CSV
/// cell, a clip position) of decimal digits with an optional '-'. A
/// fraction, a value out of range (casting -1 or 1e300 to std::size_t is
/// undefined behaviour) or other text throws ft2::Error.
long long as_int(const Json& j, long long lo = 0, long long hi = 1LL << 53) {
  long long value = 0;
  bool ok = false;
  if (j.is_number()) {
    const double d = j.as_double();
    ok = d == std::floor(d) && d >= static_cast<double>(lo) &&
         d <= static_cast<double>(hi);
    if (ok) value = static_cast<long long>(d);
  } else {
    const std::string& text = j.as_string();
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    ok = ec == std::errc() && end == last && value >= lo && value <= hi;
  }
  FT2_CHECK_MSG(ok, "bad integer field " << j.dump(-1) << ": want one in ["
                                         << lo << ", " << hi << "]");
  return value;
}

std::size_t as_count(const Json& j) {
  return static_cast<std::size_t>(as_int(j));
}

/// "KIND@position:original;..." — compact clip-event list (no commas, so
/// the CSV cell needs no special care beyond quoting).
std::string clips_string(const std::vector<ClipEvent>& clips) {
  std::string out;
  for (const ClipEvent& clip : clips) {
    if (!out.empty()) out += ';';
    out += layer_kind_name(clip.kind);
    out += '@';
    out += std::to_string(clip.position);
    out += ':';
    out += float_string(clip.original);
  }
  return out;
}

std::vector<ClipEvent> clips_from_string(const std::string& text) {
  std::vector<ClipEvent> clips;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t semi = text.find(';', start);
    if (semi == std::string::npos) semi = text.size();
    const std::string item = text.substr(start, semi - start);
    const std::size_t at = item.find('@');
    const std::size_t colon = item.find(':', at == std::string::npos ? 0 : at);
    FT2_CHECK_MSG(at != std::string::npos && colon != std::string::npos,
                  "malformed clip event '" << item << "'");
    ClipEvent clip;
    clip.kind = layer_kind_from_name(item.substr(0, at));
    clip.position = as_count(Json(item.substr(at + 1, colon - at - 1)));
    clip.original = float_from_string(item.substr(colon + 1));
    clips.push_back(clip);
    start = semi + 1;
  }
  return clips;
}

// --- Coercing readers -------------------------------------------------
// CSV parsing lifts every cell to a JSON string; the JSON readers see
// typed values. One setter per field handles both by coercing.

double as_num(const Json& j) {
  if (j.is_number()) return j.as_double();
  const std::string& text = j.as_string();
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  FT2_CHECK_MSG(!text.empty() && end == text.c_str() + text.size(),
                "bad number '" << text << "'");
  return value;
}

bool as_boolish(const Json& j) {
  if (j.is_bool()) return j.as_bool();
  return as_int(j, 0, 1) != 0;
}

/// THE field-ordering source of truth: CSV columns, JSON keys and JSONL
/// keys all come from this table, in this order. Append new fields at the
/// end — readers default missing trailing fields, so old logs stay
/// readable.
struct TrialField {
  const char* name;
  Json (*get)(const TrialRecord&);
  void (*set)(TrialRecord&, const Json&);
  bool quote_csv;  ///< always quote this cell (free-form text)
};

const std::vector<TrialField>& trial_record_fields() {
  static const std::vector<TrialField> fields = {
      {"trial", [](const TrialRecord& r) { return Json(r.trial); },
       [](TrialRecord& r, const Json& j) { r.trial = as_count(j); },
       false},
      {"input", [](const TrialRecord& r) { return Json(r.input_index); },
       [](TrialRecord& r, const Json& j) { r.input_index = as_count(j); },
       false},
      {"position", [](const TrialRecord& r) { return Json(r.plan.position); },
       [](TrialRecord& r, const Json& j) { r.plan.position = as_count(j); },
       false},
      {"in_first_token",
       [](const TrialRecord& r) { return Json(r.plan.in_first_token); },
       [](TrialRecord& r, const Json& j) {
         r.plan.in_first_token = as_boolish(j);
       },
       false},
      {"block", [](const TrialRecord& r) { return Json(r.plan.site.block); },
       [](TrialRecord& r, const Json& j) { r.plan.site.block = as_count(j); },
       false},
      {"layer",
       [](const TrialRecord& r) {
         return Json(std::string(layer_kind_name(r.plan.site.kind)));
       },
       [](TrialRecord& r, const Json& j) {
         r.plan.site.kind = layer_kind_from_name(j.as_string());
       },
       false},
      {"neuron", [](const TrialRecord& r) { return Json(r.plan.neuron); },
       [](TrialRecord& r, const Json& j) { r.plan.neuron = as_count(j); },
       false},
      {"bits",
       [](const TrialRecord& r) { return Json(bits_string(r.plan.flips)); },
       [](TrialRecord& r, const Json& j) {
         r.plan.flips = bits_from_string(j.as_string());
       },
       false},
      {"dtype",
       [](const TrialRecord& r) {
         return Json(std::string(value_type_name(r.plan.vtype)));
       },
       [](TrialRecord& r, const Json& j) {
         r.plan.vtype = value_type_from_name(j.as_string());
       },
       false},
      {"outcome",
       [](const TrialRecord& r) {
         return Json(std::string(outcome_name(r.outcome)));
       },
       [](TrialRecord& r, const Json& j) {
         r.outcome = outcome_from_name(j.as_string());
       },
       false},
      {"generated",
       [](const TrialRecord& r) { return Json(r.generated_text); },
       [](TrialRecord& r, const Json& j) { r.generated_text = j.as_string(); },
       true},
      {"fault_model",
       [](const TrialRecord& r) {
         return Json(std::string(fault_model_name(r.fault_model)));
       },
       [](TrialRecord& r, const Json& j) {
         r.fault_model = fault_model_from_name(j.as_string());
       },
       false},
      {"fired", [](const TrialRecord& r) { return Json(r.fired); },
       [](TrialRecord& r, const Json& j) { r.fired = as_boolish(j); }, false},
      {"detections",
       [](const TrialRecord& r) { return Json(r.detections); },
       [](TrialRecord& r, const Json& j) { r.detections = as_count(j); },
       false},
      {"nan_detections",
       [](const TrialRecord& r) { return Json(r.nan_detections); },
       [](TrialRecord& r, const Json& j) { r.nan_detections = as_count(j); },
       false},
      {"oob_detections",
       [](const TrialRecord& r) { return Json(r.oob_detections); },
       [](TrialRecord& r, const Json& j) { r.oob_detections = as_count(j); },
       false},
      {"detect_position",
       [](const TrialRecord& r) {
         return Json(static_cast<double>(r.detect_position));
       },
       [](TrialRecord& r, const Json& j) {
         r.detect_position = as_int(j, -1);  // -1: never detected
       },
       false},
      {"injected_original",
       [](const TrialRecord& r) { return Json(float_string(r.injected_original)); },
       [](TrialRecord& r, const Json& j) {
         r.injected_original = float_from_string(j.as_string());
       },
       false},
      {"injected_value",
       [](const TrialRecord& r) { return Json(float_string(r.injected_value)); },
       [](TrialRecord& r, const Json& j) {
         r.injected_value = float_from_string(j.as_string());
       },
       false},
      {"clips",
       [](const TrialRecord& r) { return Json(clips_string(r.clips)); },
       [](TrialRecord& r, const Json& j) {
         r.clips = clips_from_string(j.as_string());
       },
       true},
      // Appended fields (readers default them, so pre-scheme logs load):
      {"scheme", [](const TrialRecord& r) { return Json(r.scheme); },
       [](TrialRecord& r, const Json& j) { r.scheme = j.as_string(); }, true},
      {"trial_ms",
       [](const TrialRecord& r) { return Json(r.trial_ms); },
       [](TrialRecord& r, const Json& j) { r.trial_ms = as_num(j); }, false},
  };
  return fields;
}

// --- CSV ---------------------------------------------------------------

/// Quotes a CSV cell when required (or forced): doubles embedded quotes.
std::string csv_cell(const std::string& text, bool force_quote) {
  const bool needs =
      force_quote || text.find_first_of(",\"\n") != std::string::npos;
  if (!needs) return text;
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Renders one field value as its raw CSV cell text.
std::string csv_value(const Json& value) {
  if (value.is_string()) return value.as_string();
  if (value.is_bool()) return value.as_bool() ? "1" : "0";
  return value.dump(-1);  // numbers (and null, which never occurs)
}

/// Splits one CSV line honoring quoted cells with doubled quotes.
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

}  // namespace

Json trial_record_to_json(const TrialRecord& record) {
  Json item = Json::object();
  for (const TrialField& field : trial_record_fields()) {
    item[field.name] = field.get(record);
  }
  return item;
}

TrialRecord trial_record_from_json(const Json& json) {
  TrialRecord record;
  for (const TrialField& field : trial_record_fields()) {
    if (const Json* value = json.find(field.name)) {
      field.set(record, *value);
    }
  }
  return record;
}

void TraceCollector::add(const TrialRecord& record) {
  ++recorded_;
  if (sink_ != nullptr) {
    trial_record_to_json(record).write(*sink_, -1);
    *sink_ << '\n';
  }
  if (records_.size() < max_records_) records_.push_back(record);
}

void TraceCollector::write_csv(std::ostream& os) const {
  const auto& fields = trial_record_fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    os << (i == 0 ? "" : ",") << fields[i].name;
  }
  os << '\n';
  for (const auto& r : records_) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) os << ',';
      os << csv_cell(csv_value(fields[i].get(r)), fields[i].quote_csv);
    }
    os << '\n';
  }
}

Json TraceCollector::to_json() const {
  Json array = Json::array();
  for (const auto& r : records_) array.push_back(trial_record_to_json(r));
  return array;
}

void TraceCollector::write_jsonl(std::ostream& os) const {
  for (const auto& r : records_) {
    trial_record_to_json(r).write(os, -1);
    os << '\n';
  }
}

std::vector<TrialRecord> read_trial_records_csv(std::istream& is) {
  std::vector<TrialRecord> out;
  std::string line;
  FT2_CHECK_MSG(std::getline(is, line), "empty CSV trial log");
  const std::vector<std::string> header = split_csv_line(line);
  const auto& fields = trial_record_fields();
  // Map header columns onto known fields (unknown columns are skipped, so
  // logs from future schema revisions still load their shared columns).
  std::vector<const TrialField*> columns;
  for (const std::string& name : header) {
    const TrialField* match = nullptr;
    for (const TrialField& field : fields) {
      if (name == field.name) {
        match = &field;
        break;
      }
    }
    columns.push_back(match);
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = split_csv_line(line);
    FT2_CHECK_MSG(cells.size() == columns.size(),
                  "CSV row has " << cells.size() << " cells, header has "
                                 << columns.size());
    TrialRecord record;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (columns[i] != nullptr) columns[i]->set(record, Json(cells[i]));
    }
    out.push_back(std::move(record));
  }
  return out;
}

std::vector<TrialRecord> read_trial_records_jsonl(std::istream& is) {
  JsonlScan scan = scan_trial_records_jsonl(is);
  FT2_CHECK_MSG(!scan.torn_tail,
                "JSONL trial log ends in a torn partial record ('"
                    << (scan.torn_line.size() > 64
                            ? scan.torn_line.substr(0, 64) + "..."
                            : scan.torn_line)
                    << "'); truncate to " << scan.valid_bytes
                    << " bytes or load via scan_trial_records_jsonl");
  return std::move(scan.records);
}

JsonlScan scan_trial_records_jsonl(std::istream& is) {
  const std::string content{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
  JsonlScan scan;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t nl = content.find('\n', start);
    if (nl == std::string::npos) {
      // Final line never got its newline: a write torn by a dying process.
      // Even if the fragment parses as JSON (truncation can land exactly on
      // a '}' and silently drop trailing fields), it is not trustworthy.
      scan.torn_tail = true;
      scan.torn_line = content.substr(start);
      break;
    }
    std::string line = content.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t next = nl + 1;
    if (line.find_first_not_of(" \t") != std::string::npos) {
      Json parsed;
      try {
        parsed = Json::parse(line);
      } catch (const Error&) {
        const bool last_line = content.find_first_not_of(" \t\r\n", next) ==
                               std::string::npos;
        // The newline can be flushed without the full line before it; only
        // the final line gets that benefit of the doubt.
        FT2_CHECK_MSG(last_line, "corrupt JSONL trial log at byte offset "
                                     << start << ": unparseable mid-file line");
        scan.torn_tail = true;
        scan.torn_line = line;
        break;
      }
      if (parsed.is_object() && parsed.find("ft2_shard") != nullptr) {
        scan.manifests.push_back(std::move(parsed));
      } else {
        scan.records.push_back(trial_record_from_json(parsed));
      }
    }
    scan.valid_bytes = next;
    start = next;
  }
  if (!scan.torn_tail) scan.valid_bytes = content.size();
  return scan;
}

std::vector<TrialRecord> read_trial_records_json(const Json& array) {
  FT2_CHECK_MSG(array.is_array(), "trial log JSON must be an array");
  std::vector<TrialRecord> out;
  for (std::size_t i = 0; i < array.size(); ++i) {
    out.push_back(trial_record_from_json(array.at(i)));
  }
  return out;
}

}  // namespace ft2
