#include "fi/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace ft2 {

namespace {

/// Exact order statistic over a sorted sample (0 when empty).
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// "[lo%, hi%]" interval cell.
std::string ci_cell(double lo, double hi) {
  return std::string("[").append(Table::format_pct(lo, 2)).append(", ")
      .append(Table::format_pct(hi, 2)).append("]");
}

std::string wilson_cell(std::size_t k, std::size_t n,
                        const CampaignReport::CiConfig& ci) {
  if (n == 0) return "-";
  const ProportionCI w = proportion_ci(k, n, ci.z);
  return ci_cell(w.lo, w.hi);
}

std::string bootstrap_cell(std::size_t k, std::size_t n,
                           const CampaignReport::CiConfig& ci) {
  if (n == 0) return "-";
  const BootstrapCI b = bootstrap_proportion_ci(k, n, ci.bootstrap);
  return ci_cell(b.lo, b.hi);
}

Json ci_pair(double lo, double hi) {
  Json pair = Json::array();
  pair.push_back(lo);
  pair.push_back(hi);
  return pair;
}

/// Attaches `<prefix>_wilson` / `<prefix>_bootstrap` interval pairs for
/// the rate k/n to a JSON entry.
void attach_rate_cis(Json& entry, const std::string& prefix, std::size_t k,
                     std::size_t n, const CampaignReport::CiConfig& ci) {
  if (n == 0) return;
  const ProportionCI w = proportion_ci(k, n, ci.z);
  entry[prefix + "_wilson"] = ci_pair(w.lo, w.hi);
  const BootstrapCI b = bootstrap_proportion_ci(k, n, ci.bootstrap);
  entry[prefix + "_bootstrap"] = ci_pair(b.lo, b.hi);
}

}  // namespace

double CampaignReport::latency_quantile(double q) const {
  return sorted_quantile(detection_latencies, q);
}

double CampaignReport::SchemeTally::latency_quantile(double q) const {
  return sorted_quantile(detection_latencies, q);
}

CampaignReport aggregate_trial_records(
    const std::vector<TrialRecord>& records) {
  CampaignReport report;
  for (const TrialRecord& r : records) {
    report.result.add(r.outcome);

    const bool sdc = r.outcome == Outcome::kSdc;
    const bool detected = r.detections > 0;
    const LayerKind kind = r.plan.site.kind;

    CampaignReport::Tally& layer = report.by_layer[kind];
    ++layer.faults;
    layer.sdc += sdc ? 1 : 0;
    layer.detected += detected ? 1 : 0;

    auto& per_bit = report.by_model_layer_bit[r.fault_model][kind];
    for (int b = 0; b < r.plan.flips.count; ++b) {
      CampaignReport::Tally& tally = per_bit[r.plan.flips.bits[
          static_cast<std::size_t>(b)]];
      ++tally.faults;
      tally.sdc += sdc ? 1 : 0;
      tally.detected += detected ? 1 : 0;
    }

    CampaignReport::SchemeTally& scheme = report.by_scheme[r.scheme];
    ++scheme.trials;
    scheme.sdc += sdc ? 1 : 0;
    scheme.detected += detected ? 1 : 0;
    if (r.trial_ms > 0.0) {
      ++scheme.timed;
      scheme.total_ms += r.trial_ms;
    }

    if (r.fired && r.detect_position >= 0 &&
        r.detect_position >= static_cast<long long>(r.plan.position)) {
      const double latency = static_cast<double>(
          r.detect_position - static_cast<long long>(r.plan.position));
      report.detection_latencies.push_back(latency);
      scheme.detection_latencies.push_back(latency);
    }
  }
  std::sort(report.detection_latencies.begin(),
            report.detection_latencies.end());
  for (auto& [name, scheme] : report.by_scheme) {
    std::sort(scheme.detection_latencies.begin(),
              scheme.detection_latencies.end());
  }
  return report;
}

Table CampaignReport::outcome_table() const {
  Table table({"outcome", "trials", "fraction", "wilson_95", "bootstrap_95"});
  const auto row = [&](const char* name, std::size_t n) {
    table.begin_row()
        .cell(name)
        .count(n)
        .pct(result.trials == 0
                 ? 0.0
                 : static_cast<double>(n) /
                       static_cast<double>(result.trials))
        .cell(wilson_cell(n, result.trials, ci))
        .cell(bootstrap_cell(n, result.trials, ci));
  };
  row("masked_identical", result.masked_identical);
  row("masked_semantic", result.masked_semantic);
  row("sdc", result.sdc);
  row("not_injected", result.not_injected);
  table.begin_row()
      .cell("total")
      .count(result.trials)
      .pct(result.trials == 0 ? 0.0 : 1.0)
      .cell("-")
      .cell("-");
  return table;
}

Table CampaignReport::layer_table() const {
  Table table({"layer", "faults", "sdc", "sdc_rate", "sdc_wilson",
               "sdc_boot", "detected", "detected_rate"});
  for (const auto& [kind, tally] : by_layer) {
    table.begin_row()
        .cell(std::string(layer_kind_name(kind)))
        .count(tally.faults)
        .count(tally.sdc)
        .pct(tally.sdc_rate())
        .cell(wilson_cell(tally.sdc, tally.faults, ci))
        .cell(bootstrap_cell(tally.sdc, tally.faults, ci))
        .count(tally.detected)
        .pct(tally.detected_rate());
  }
  return table;
}

Table CampaignReport::layer_bit_table() const {
  Table table({"fault_model", "layer", "bit", "faults", "sdc", "sdc_rate"});
  for (const auto& [model, per_layer] : by_model_layer_bit) {
    for (const auto& [kind, per_bit] : per_layer) {
      for (const auto& [bit, tally] : per_bit) {
        table.begin_row()
            .cell(fault_model_name(model))
            .cell(std::string(layer_kind_name(kind)))
            .count(static_cast<std::size_t>(bit))
            .count(tally.faults)
            .count(tally.sdc)
            .pct(tally.sdc_rate());
      }
    }
  }
  return table;
}

Table CampaignReport::scheme_table() const {
  const auto it = by_scheme.find("none");
  const SchemeTally* none =
      it != by_scheme.end() && it->second.trials > 0 ? &it->second : nullptr;

  Table table({"scheme", "trials", "sdc", "sdc_rate", "sdc_wilson",
               "sdc_boot", "sdc_reduction", "detected_rate", "det_wilson",
               "lat_p50", "lat_p95", "lat_p99", "mean_ms", "overhead"});
  for (const auto& [name, tally] : by_scheme) {
    table.begin_row()
        .cell(name.empty() ? "(unrecorded)" : name)
        .count(tally.trials)
        .count(tally.sdc)
        .pct(tally.sdc_rate())
        .cell(wilson_cell(tally.sdc, tally.trials, ci))
        .cell(bootstrap_cell(tally.sdc, tally.trials, ci));
    if (none != nullptr && none != &tally && none->sdc_rate() > 0.0) {
      table.pct(1.0 - tally.sdc_rate() / none->sdc_rate());
    } else {
      table.cell("-");
    }
    table.pct(tally.detected_rate())
        .cell(wilson_cell(tally.detected, tally.trials, ci))
        .num(tally.latency_quantile(0.50), 1)
        .num(tally.latency_quantile(0.95), 1)
        .num(tally.latency_quantile(0.99), 1);
    if (tally.timed > 0) {
      table.num(tally.mean_trial_ms(), 3);
    } else {
      table.cell("-");
    }
    if (none != nullptr && none != &tally && tally.timed > 0 &&
        none->mean_trial_ms() > 0.0) {
      table.pct(tally.mean_trial_ms() / none->mean_trial_ms() - 1.0);
    } else {
      table.cell("-");
    }
  }
  return table;
}

Table CampaignReport::latency_table() const {
  Table table({"detections", "p50", "p95", "p99", "max"});
  table.begin_row()
      .count(detection_latencies.size())
      .num(latency_quantile(0.50), 1)
      .num(latency_quantile(0.95), 1)
      .num(latency_quantile(0.99), 1)
      .num(detection_latencies.empty() ? 0.0 : detection_latencies.back(), 1);
  return table;
}

Json CampaignReport::to_json() const {
  Json doc = Json::object();

  Json outcomes = Json::object();
  outcomes["trials"] = result.trials;
  outcomes["masked_identical"] = result.masked_identical;
  outcomes["masked_semantic"] = result.masked_semantic;
  outcomes["sdc"] = result.sdc;
  outcomes["not_injected"] = result.not_injected;
  outcomes["sdc_rate"] = result.sdc_rate();
  attach_rate_cis(outcomes, "masked_identical", result.masked_identical,
                  result.trials, ci);
  attach_rate_cis(outcomes, "masked_semantic", result.masked_semantic,
                  result.trials, ci);
  attach_rate_cis(outcomes, "sdc", result.sdc, result.trials, ci);
  attach_rate_cis(outcomes, "not_injected", result.not_injected,
                  result.trials, ci);
  doc["outcomes"] = std::move(outcomes);

  Json ci_doc = Json::object();
  ci_doc["z"] = ci.z;
  ci_doc["confidence"] = ci.bootstrap.confidence;
  ci_doc["bootstrap_resamples"] = ci.bootstrap.resamples;
  ci_doc["bootstrap_seed"] = std::to_string(ci.bootstrap.seed);
  doc["ci"] = std::move(ci_doc);

  Json layers = Json::object();
  for (const auto& [kind, tally] : by_layer) {
    Json entry = Json::object();
    entry["faults"] = tally.faults;
    entry["sdc"] = tally.sdc;
    entry["sdc_rate"] = tally.sdc_rate();
    entry["detected"] = tally.detected;
    entry["detected_rate"] = tally.detected_rate();
    attach_rate_cis(entry, "sdc", tally.sdc, tally.faults, ci);
    attach_rate_cis(entry, "detected", tally.detected, tally.faults, ci);
    layers[std::string(layer_kind_name(kind))] = std::move(entry);
  }
  doc["by_layer"] = std::move(layers);

  Json models = Json::object();
  for (const auto& [model, per_layer] : by_model_layer_bit) {
    Json layer_obj = Json::object();
    for (const auto& [kind, per_bit] : per_layer) {
      Json bits = Json::object();
      for (const auto& [bit, tally] : per_bit) {
        Json entry = Json::object();
        entry["faults"] = tally.faults;
        entry["sdc"] = tally.sdc;
        entry["sdc_rate"] = tally.sdc_rate();
        bits[std::to_string(bit)] = std::move(entry);
      }
      layer_obj[std::string(layer_kind_name(kind))] = std::move(bits);
    }
    models[fault_model_name(model)] = std::move(layer_obj);
  }
  doc["by_model_layer_bit"] = std::move(models);

  Json schemes = Json::object();
  const auto none_it = by_scheme.find("none");
  const SchemeTally* none =
      none_it != by_scheme.end() && none_it->second.trials > 0
          ? &none_it->second
          : nullptr;
  for (const auto& [name, tally] : by_scheme) {
    Json entry = Json::object();
    entry["trials"] = tally.trials;
    entry["sdc"] = tally.sdc;
    entry["sdc_rate"] = tally.sdc_rate();
    if (none != nullptr && none != &tally && none->sdc_rate() > 0.0) {
      entry["sdc_reduction"] = 1.0 - tally.sdc_rate() / none->sdc_rate();
    }
    entry["detected"] = tally.detected;
    entry["detected_rate"] = tally.detected_rate();
    attach_rate_cis(entry, "sdc", tally.sdc, tally.trials, ci);
    attach_rate_cis(entry, "detected", tally.detected, tally.trials, ci);
    entry["latency_count"] = tally.detection_latencies.size();
    entry["latency_p50"] = tally.latency_quantile(0.50);
    entry["latency_p95"] = tally.latency_quantile(0.95);
    entry["latency_p99"] = tally.latency_quantile(0.99);
    if (tally.timed > 0) {
      entry["mean_trial_ms"] = tally.mean_trial_ms();
      if (none != nullptr && none != &tally && none->mean_trial_ms() > 0.0) {
        entry["overhead"] = tally.mean_trial_ms() / none->mean_trial_ms() - 1.0;
      }
    }
    schemes[name.empty() ? "(unrecorded)" : name] = std::move(entry);
  }
  doc["by_scheme"] = std::move(schemes);

  Json latency = Json::object();
  latency["count"] = detection_latencies.size();
  latency["p50"] = latency_quantile(0.50);
  latency["p95"] = latency_quantile(0.95);
  latency["p99"] = latency_quantile(0.99);
  latency["max"] =
      detection_latencies.empty() ? 0.0 : detection_latencies.back();
  doc["detection_latency"] = std::move(latency);

  return doc;
}

std::vector<TrialRecord> load_trial_records(const std::string& path) {
  std::ifstream file(path);
  FT2_CHECK_MSG(file.good(), "cannot open trial log '" << path << "'");
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    return read_trial_records_csv(file);
  }
  // Sniff: a JSON array document starts with '['; JSONL lines start with
  // '{'.
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  FT2_CHECK_MSG(first != std::string::npos, "empty trial log '" << path << "'");
  if (text[first] == '[') {
    return read_trial_records_json(Json::parse(text));
  }
  std::istringstream lines(text);
  return read_trial_records_jsonl(lines);
}

}  // namespace ft2
