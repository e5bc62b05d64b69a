// Campaign report aggregation: the flight-recorder log IS the campaign.
// The headline pin: aggregating recorded trial records reproduces the
// exact CampaignResult counts the in-process run returned, for every
// on-disk format `ft2 report` accepts.
#include "fi/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fi/shard.hpp"
#include "nn/weights.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 96;
  Xoshiro256 rng(21);
  return TransformerLM(c, init_weights(c, rng));
}

struct CampaignRun {
  CampaignResult result;
  TraceCollector trace;
};

CampaignRun small_campaign(bool capture_clips = true) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 99);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  CampaignConfig config;
  config.trials_per_input = 15;
  config.gen_tokens = 6;
  config.fault_model = FaultModel::kDoubleBit;
  config.capture_clips = capture_clips;
  CampaignRun run;
  run.result = run_campaign(model, inputs, SchemeKind::kFt2, BoundStore{},
                            config, run.trace.callback());
  return run;
}

void expect_result_equal(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.masked_identical, b.masked_identical);
  EXPECT_EQ(a.masked_semantic, b.masked_semantic);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.not_injected, b.not_injected);
}

TEST(CampaignReport, AggregationReproducesCampaignResultExactly) {
  const CampaignRun run = small_campaign();
  ASSERT_GT(run.result.trials, 0u);

  const CampaignReport report = aggregate_trial_records(run.trace.records());
  expect_result_equal(report.result, run.result);

  // Per-layer tallies partition the trials.
  std::size_t layer_total = 0;
  for (const auto& [kind, tally] : report.by_layer) layer_total += tally.faults;
  EXPECT_EQ(layer_total, run.result.trials);

  // A 2-bit campaign counts each trial under both of its flipped bits.
  std::size_t bit_total = 0;
  for (const auto& [model, per_layer] : report.by_model_layer_bit) {
    EXPECT_EQ(model, FaultModel::kDoubleBit);
    for (const auto& [kind, per_bit] : per_layer) {
      for (const auto& [bit, tally] : per_bit) bit_total += tally.faults;
    }
  }
  EXPECT_EQ(bit_total, 2 * run.result.trials);

  // Detection latencies: sorted, one per fired-and-detected-at-or-after-
  // injection trial, each >= 0.
  std::size_t expected_latencies = 0;
  for (const TrialRecord& r : run.trace.records()) {
    if (r.fired && r.detect_position >= 0 &&
        r.detect_position >= static_cast<long long>(r.plan.position)) {
      ++expected_latencies;
    }
  }
  EXPECT_EQ(report.detection_latencies.size(), expected_latencies);
  EXPECT_TRUE(std::is_sorted(report.detection_latencies.begin(),
                             report.detection_latencies.end()));
  for (double l : report.detection_latencies) EXPECT_GE(l, 0.0);
}

TEST(CampaignReport, EveryOnDiskFormatAggregatesIdentically) {
  const CampaignRun run = small_campaign();
  const auto dir = std::filesystem::temp_directory_path();
  const std::string csv = (dir / "ft2_report_test.csv").string();
  const std::string jsonl = (dir / "ft2_report_test.jsonl").string();
  const std::string json = (dir / "ft2_report_test.json").string();
  {
    std::ofstream os(csv);
    run.trace.write_csv(os);
  }
  {
    std::ofstream os(jsonl);
    run.trace.write_jsonl(os);
  }
  {
    std::ofstream os(json);
    run.trace.to_json().write(os, 2);
  }

  for (const std::string& path : {csv, jsonl, json}) {
    const std::vector<TrialRecord> records = load_trial_records(path);
    ASSERT_EQ(records.size(), run.result.trials) << path;
    const CampaignReport report = aggregate_trial_records(records);
    expect_result_equal(report.result, run.result);
    // The whole report matches the in-memory aggregation, not just the
    // outcome counts.
    EXPECT_EQ(report.to_json().dump(-1),
              aggregate_trial_records(run.trace.records()).to_json().dump(-1))
        << path;
    std::remove(path.c_str());
  }
}

TEST(CampaignReport, LatencyQuantileIsExactOrderStatistic) {
  CampaignReport report;
  EXPECT_DOUBLE_EQ(report.latency_quantile(0.5), 0.0);  // empty
  report.detection_latencies = {2.0};
  EXPECT_DOUBLE_EQ(report.latency_quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(report.latency_quantile(1.0), 2.0);
  report.detection_latencies = {0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(report.latency_quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(report.latency_quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(report.latency_quantile(0.5), 1.5);  // interpolated
}

TEST(CampaignReport, TablesAndJsonCoverAllSections) {
  const CampaignRun run = small_campaign();
  const CampaignReport report = aggregate_trial_records(run.trace.records());

  EXPECT_EQ(report.outcome_table().rows(), 5u);  // 4 outcomes + total
  EXPECT_EQ(report.layer_table().rows(), report.by_layer.size());
  EXPECT_EQ(report.latency_table().rows(), 1u);

  const Json doc = report.to_json();
  ASSERT_NE(doc.find("outcomes"), nullptr);
  ASSERT_NE(doc.find("by_layer"), nullptr);
  ASSERT_NE(doc.find("by_model_layer_bit"), nullptr);
  ASSERT_NE(doc.find("detection_latency"), nullptr);
  EXPECT_EQ(static_cast<std::size_t>(
                doc.at("outcomes").at("trials").as_double()),
            run.result.trials);
  EXPECT_EQ(static_cast<std::size_t>(
                doc.at("detection_latency").at("count").as_double()),
            report.detection_latencies.size());
}

// The sharding pin from the issue: splitting the SAME campaign across
// {2, 4, 7} worker ranges (7 does not divide 30 trials, so the partition
// is uneven) and merging the shard logs must reproduce the whole-process
// run bit-for-bit — identical records (modulo wall time) and an identical
// aggregated report.
TEST(CampaignReport, ShardSplitMergeMatchesWholeRunExactly) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 99);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  CampaignConfig config;
  config.trials_per_input = 15;
  config.gen_tokens = 6;
  config.fault_model = FaultModel::kDoubleBit;
  const SchemeRef scheme = SchemeRef::parse("ft2");
  const std::size_t total = inputs.size() * config.trials_per_input;

  // Wall time is observational and differs across processes; zero it so
  // record dumps and report JSON (mean_ms feeds the latter) compare exact.
  const auto strip_timing = [](std::vector<TrialRecord> records) {
    for (TrialRecord& r : records) r.trial_ms = 0.0;
    return records;
  };
  const auto dump_records = [](const std::vector<TrialRecord>& records) {
    std::string out;
    for (const TrialRecord& r : records) {
      out += trial_record_to_json(r).dump(-1);
      out += '\n';
    }
    return out;
  };

  TraceCollector whole;
  const CampaignResult whole_result = run_campaign(
      model, inputs, scheme, BoundStore{}, config, whole.callback());
  ASSERT_EQ(whole_result.trials, total);
  const std::vector<TrialRecord> whole_records = strip_timing(whole.records());
  const std::string whole_dump = dump_records(whole_records);
  const std::string whole_report =
      aggregate_trial_records(whole_records).to_json().dump(-1);

  const auto dir = std::filesystem::temp_directory_path() / "ft2_shard_eq";
  std::filesystem::create_directories(dir);
  for (const std::size_t shards : {2u, 4u, 7u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const auto ranges = partition_trials(total, shards);
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < shards; ++i) {
      ShardManifest m;
      m.model = "micro";
      m.model_digest = weights_digest_hex(model.export_weights());
      m.dataset = "synthqa";
      m.scheme = scheme.display();
      m.fault_model = fault_model_name(config.fault_model);
      m.vtype = value_type_name(config.vtype);
      m.campaign_seed = config.seed;
      m.trials_per_input = config.trials_per_input;
      m.gen_tokens = config.gen_tokens;
      m.faults_per_trial = config.faults_per_trial;
      m.n_inputs = inputs.size();
      m.total_trials = total;
      m.shard_index = i;
      m.shard_count = shards;
      m.first_trial = ranges[i].first;
      m.last_trial = ranges[i].last;
      paths.push_back(shard_log_path(dir.string(), i, shards));
      run_campaign_shard(model, inputs, scheme, BoundStore{}, config, m,
                         paths.back(), /*resume=*/false);
    }

    const ShardMerge merge = merge_shard_logs(paths);
    EXPECT_TRUE(merge.complete());
    EXPECT_EQ(merge.total_trials, total);
    ASSERT_EQ(merge.records.size(), total);
    const std::vector<TrialRecord> merged = strip_timing(merge.records);
    EXPECT_EQ(dump_records(merged), whole_dump);

    const CampaignReport report = aggregate_trial_records(merged);
    expect_result_equal(report.result, whole_result);
    EXPECT_EQ(report.to_json().dump(-1), whole_report);
    for (const std::string& p : paths) std::remove(p.c_str());
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignReport, LoadRejectsMissingAndEmptyLogs) {
  EXPECT_THROW(load_trial_records("/nonexistent/ft2.jsonl"), Error);
  const auto path =
      (std::filesystem::temp_directory_path() / "ft2_empty.jsonl").string();
  { std::ofstream os(path); }
  EXPECT_THROW(load_trial_records(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ft2
