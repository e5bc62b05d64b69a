// Live shard telemetry: frame wire-format codec (length prefix, partial
// feeds, malformed payloads), ShardProgressBoard merging/progress/ETA,
// and the worker end — run_campaign_shard writing decodable frames to a
// real pipe while producing records bit-identical to a telemetry-free run.
#include "fi/shard.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "nn/weights.hpp"
#include "obs/metrics.hpp"

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

ShardFrame sample_frame(std::size_t shard, std::size_t done) {
  ShardFrame f;
  f.shard = shard;
  f.shards = 3;
  f.first = shard * 10;
  f.last = shard * 10 + 10;
  f.done = done;
  f.outcomes["masked_identical"] = done;
  return f;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Manifest of a one-shard run covering the whole campaign.
ShardManifest one_shard_manifest(const TransformerLM& model,
                                 const std::vector<EvalInput>& inputs,
                                 const SchemeRef& scheme,
                                 const CampaignConfig& config) {
  ShardManifest manifest;
  manifest.model = "micro";
  manifest.model_digest = weights_digest_hex(model.export_weights());
  manifest.dataset = "synthqa";
  manifest.scheme = scheme.display();
  manifest.fault_model = fault_model_name(config.fault_model);
  manifest.vtype = value_type_name(config.vtype);
  manifest.campaign_seed = config.seed;
  manifest.trials_per_input = config.trials_per_input;
  manifest.gen_tokens = config.gen_tokens;
  manifest.faults_per_trial = config.faults_per_trial;
  manifest.n_inputs = inputs.size();
  manifest.total_trials = inputs.size() * config.trials_per_input;
  manifest.last_trial = manifest.total_trials;
  return manifest;
}

/// Reads `fd` to EOF and decodes every frame; the stream must end on a
/// frame boundary.
std::vector<ShardFrame> drain_frames(int fd) {
  ShardFrameDecoder decoder;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);  // no torn trailing frame
  return decoder.take_frames();
}

std::string timeless_dump(std::vector<TrialRecord> records) {
  std::string out;
  for (TrialRecord& r : records) {
    r.trial_ms = 0.0;
    out += trial_record_to_json(r).dump(-1);
    out += '\n';
  }
  return out;
}

TEST(ShardFrame, JsonRoundTrip) {
  ShardFrame f;
  f.shard = 2;
  f.shards = 3;
  f.first = 20;
  f.last = 30;
  f.done = 7;
  f.resumed = 4;
  f.final_frame = true;
  f.outcomes["sdc"] = 1;
  f.outcomes["masked_identical"] = 6;
  MetricsRegistry reg;
  reg.counter("campaign.trials").inc(7);
  f.metrics = reg.snapshot();

  const Json doc = f.to_json();
  EXPECT_NE(doc.find("ft2_shard_frame"), nullptr);
  const ShardFrame back = ShardFrame::from_json(doc);
  EXPECT_EQ(back.shard, 2u);
  EXPECT_EQ(back.shards, 3u);
  EXPECT_EQ(back.first, 20u);
  EXPECT_EQ(back.last, 30u);
  EXPECT_EQ(back.done, 7u);
  EXPECT_EQ(back.resumed, 4u);
  EXPECT_TRUE(back.final_frame);
  EXPECT_EQ(back.total(), 10u);
  ASSERT_EQ(back.outcomes.size(), 2u);
  EXPECT_EQ(back.outcomes.at("sdc"), 1u);
  EXPECT_EQ(back.outcomes.at("masked_identical"), 6u);
  EXPECT_EQ(back.metrics.counter_value("campaign.trials"), 7u);
}

TEST(ShardFrameDecoder, DecodesWholeAndBatchedFrames) {
  const std::string a = encode_shard_frame(sample_frame(0, 1));
  const std::string b = encode_shard_frame(sample_frame(1, 2));

  ShardFrameDecoder decoder;
  decoder.feed(a.data(), a.size());
  std::vector<ShardFrame> frames = decoder.take_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].shard, 0u);

  // Two frames arriving in one read decode in order.
  const std::string both = a + b;
  decoder.feed(both.data(), both.size());
  frames = decoder.take_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].shard, 0u);
  EXPECT_EQ(frames[1].shard, 1u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(ShardFrameDecoder, ReassemblesAcrossArbitraryReadBoundaries) {
  const std::string wire = encode_shard_frame(sample_frame(2, 9));
  // Feed one byte at a time: nothing decodes until the final byte.
  ShardFrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(wire.data() + i, 1);
    EXPECT_TRUE(decoder.take_frames().empty());
  }
  decoder.feed(wire.data() + wire.size() - 1, 1);
  const std::vector<ShardFrame> frames = decoder.take_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].shard, 2u);
  EXPECT_EQ(frames[0].done, 9u);
}

TEST(ShardFrameDecoder, MalformedPayloadThrows) {
  // A length prefix followed by bytes that are not a frame JSON.
  const std::string payload = "{\"not\": \"a frame\"}";
  std::string wire;
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  wire.push_back(static_cast<char>(n & 0xff));
  wire.push_back(static_cast<char>((n >> 8) & 0xff));
  wire.push_back(static_cast<char>((n >> 16) & 0xff));
  wire.push_back(static_cast<char>((n >> 24) & 0xff));
  wire += payload;
  ShardFrameDecoder decoder;
  EXPECT_THROW(decoder.feed(wire.data(), wire.size()), Error);
}

TEST(ShardProgressBoard, AggregatesPerShardProgress) {
  ShardProgressBoard board(3, 30);
  ShardFrame f0 = sample_frame(0, 4);
  ShardFrame f1 = sample_frame(1, 6);
  f1.outcomes["sdc"] = 1;
  board.update(f0);
  board.update(f1);

  const ShardProgressBoard::Progress p = board.progress();
  EXPECT_EQ(p.done, 10u);
  EXPECT_EQ(p.total, 30u);
  EXPECT_EQ(p.shards_reporting, 2u);
  EXPECT_EQ(p.shards_final, 0u);
  ASSERT_EQ(p.per_shard_done.size(), 3u);
  EXPECT_EQ(p.per_shard_done[0], 4u);
  EXPECT_EQ(p.per_shard_done[1], 6u);
  EXPECT_EQ(p.per_shard_done[2], 0u);
  EXPECT_EQ(p.outcomes.at("masked_identical"), 10u);
  EXPECT_EQ(p.outcomes.at("sdc"), 1u);

  // A newer frame for the same shard replaces (not adds to) its entry.
  f0.done = 8;
  f0.outcomes["masked_identical"] = 8;
  f0.final_frame = true;
  board.update(f0);
  const ShardProgressBoard::Progress p2 = board.progress();
  EXPECT_EQ(p2.done, 14u);
  EXPECT_EQ(p2.shards_final, 1u);
}

TEST(ShardProgressBoard, RateExcludesResumedWork) {
  // The first frame carries work that predates this run (resumed trials);
  // the rate baseline must exclude it or ETA is wildly optimistic.
  ShardProgressBoard board(1, 100);
  ShardFrame first = sample_frame(0, 50);
  first.resumed = 50;
  board.update(first);
  const ShardProgressBoard::Progress p = board.progress();
  // No fresh work yet: no usable rate, ETA unknown (-1).
  EXPECT_DOUBLE_EQ(p.trials_per_s, 0.0);
  EXPECT_DOUBLE_EQ(p.eta_s, -1.0);
}

TEST(ShardProgressBoard, ProgressLineMentionsShardsAndTrials) {
  ShardProgressBoard board(2, 20);
  board.update(sample_frame(0, 5));
  const std::string line = board.progress_line();
  EXPECT_NE(line.find("shards 0/2 done"), std::string::npos) << line;
  EXPECT_NE(line.find("trials 5/20"), std::string::npos) << line;
  EXPECT_NE(line.find("per-shard"), std::string::npos) << line;
}

TEST(ShardProgressBoard, TelemetrySnapshotCarriesProgressGauges) {
  ShardProgressBoard board(2, 20);
  ShardFrame f = sample_frame(0, 5);
  MetricsRegistry reg;
  reg.counter("campaign.trials").inc(5);
  f.metrics = reg.snapshot();
  board.update(f);

  const MetricsSnapshot merged = board.telemetry_snapshot();
  // Worker metrics merge through; synthetic progress gauges appear.
  EXPECT_EQ(merged.counter_value("campaign.trials"), 5u);
  const MetricsSnapshot::GaugeValue* done =
      merged.find_gauge("campaign.progress.done");
  ASSERT_NE(done, nullptr);
  EXPECT_DOUBLE_EQ(done->value, 5.0);
  const MetricsSnapshot::GaugeValue* total =
      merged.find_gauge("campaign.progress.total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->value, 20.0);
  EXPECT_NE(merged.find_gauge("campaign.shard.progress.0"), nullptr);

  const Json doc = board.telemetry_json();
  EXPECT_DOUBLE_EQ(doc.at("progress").at("done").as_double(), 5.0);
  EXPECT_EQ(doc.at("progress").at("per_shard").at(0).at("shard")
                .as_double(),
            0.0);
}

TEST(ShardTelemetry, WorkerEmitsDecodableFramesAndStaysBitIdentical) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 99);
  const std::vector<EvalInput> inputs =
      prepare_eval_inputs(model, samples, 6, false);
  const SchemeRef scheme = SchemeRef::parse("ft2");
  const BoundStore bounds;
  CampaignConfig config;
  config.trials_per_input = 6;
  config.gen_tokens = 6;
  config.fault_model = FaultModel::kDoubleBit;
  // The frames snapshot this registry; a small private one keeps them
  // small.
  MetricsRegistry frame_metrics;
  config.obs.metrics = &frame_metrics;
  const std::size_t total = inputs.size() * config.trials_per_input;

  const ShardManifest manifest =
      one_shard_manifest(model, inputs, scheme, config);

  // Baseline: no telemetry.
  const std::string plain_log = temp_path("ft2_teltest_plain.jsonl");
  std::remove(plain_log.c_str());
  const ShardRunResult plain = run_campaign_shard(
      model, inputs, scheme, bounds, config, manifest, plain_log, false);

  // Telemetry run: frames flow into a real pipe.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ShardTelemetryConfig telemetry;
  telemetry.fd = fds[1];
  telemetry.interval_ms = 0;  // emit on every flush
  ASSERT_TRUE(telemetry.enabled());
  const std::string tel_log = temp_path("ft2_teltest_tel.jsonl");
  std::remove(tel_log.c_str());
  const ShardRunResult with_telemetry =
      run_campaign_shard(model, inputs, scheme, bounds, config, manifest,
                         tel_log, false, telemetry);
  close(fds[1]);

  // Outcomes are bit-identical with telemetry on (frames are advisory).
  const std::vector<TrialRecord> plain_records =
      scan_shard_log(plain_log).records;
  const std::vector<TrialRecord> tel_records =
      scan_shard_log(tel_log).records;
  EXPECT_EQ(plain.executed, with_telemetry.executed);
  EXPECT_EQ(timeless_dump(plain_records), timeless_dump(tel_records));

  // Drain the pipe and decode every frame.
  const std::vector<ShardFrame> frames = drain_frames(fds[0]);
  close(fds[0]);
  ASSERT_GE(frames.size(), 2u);  // at least the initial + final frame

  // First frame announces the range before any fresh work.
  EXPECT_EQ(frames.front().shard, 0u);
  EXPECT_EQ(frames.front().first, 0u);
  EXPECT_EQ(frames.front().last, total);

  // Final frame: marked, complete, and outcome tallies match the records.
  const ShardFrame& last = frames.back();
  EXPECT_TRUE(last.final_frame);
  EXPECT_EQ(last.done, total);
  std::map<std::string, std::uint64_t> expected;
  for (const TrialRecord& r : tel_records) {
    ++expected[outcome_name(r.outcome)];
  }
  EXPECT_EQ(last.outcomes, expected);

  // done never decreases across frames.
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_GE(frames[i].done, frames[i - 1].done);
  }

  // A board fed the frames ends at 100% with the same outcome mix.
  ShardProgressBoard board(1, total);
  for (const ShardFrame& f : frames) board.update(f);
  const ShardProgressBoard::Progress p = board.progress();
  EXPECT_EQ(p.done, total);
  EXPECT_EQ(p.shards_final, 1u);
  EXPECT_EQ(p.outcomes, expected);

  std::remove(plain_log.c_str());
  std::remove(tel_log.c_str());
}

TEST(ShardTelemetry, BrokenPipeNeverFailsTheShard) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 99);
  const std::vector<EvalInput> inputs =
      prepare_eval_inputs(model, samples, 6, false);
  const SchemeRef scheme = SchemeRef::parse("none");
  const BoundStore bounds;
  CampaignConfig config;
  config.trials_per_input = 3;
  config.gen_tokens = 4;
  const std::size_t total = inputs.size() * config.trials_per_input;

  const ShardManifest manifest =
      one_shard_manifest(model, inputs, scheme, config);

  // Close the read end before the run: every write hits EPIPE. SIGPIPE is
  // suppressed per-write (MSG_NOSIGNAL semantics via signal(SIGPIPE) in
  // the CLI; here the emitter's error path simply disables itself).
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);
  signal(SIGPIPE, SIG_IGN);
  ShardTelemetryConfig telemetry;
  telemetry.fd = fds[1];
  telemetry.interval_ms = 0;

  const std::string log = temp_path("ft2_teltest_epipe.jsonl");
  std::remove(log.c_str());
  const ShardRunResult result =
      run_campaign_shard(model, inputs, scheme, bounds, config, manifest,
                         log, false, telemetry);
  close(fds[1]);
  EXPECT_EQ(result.executed, total);
  std::remove(log.c_str());
}

// A campaign with no sinks publishes nothing and still runs: a shard run
// with a default CampaignConfig writes every record, with or without a
// telemetry pipe, and its frames carry an empty metrics snapshot.
TEST(ShardTelemetry, NullSinksRunAndEmitEmptySnapshots) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 99);
  const std::vector<EvalInput> inputs =
      prepare_eval_inputs(model, samples, 6, false);
  const SchemeRef scheme = SchemeRef::parse("ft2");
  const BoundStore bounds;
  CampaignConfig config;
  config.trials_per_input = 3;
  config.gen_tokens = 4;
  ASSERT_EQ(config.obs.metrics, nullptr);
  ASSERT_EQ(config.obs.tracer, nullptr);
  const ShardManifest manifest =
      one_shard_manifest(model, inputs, scheme, config);
  const std::size_t total = manifest.total_trials;

  const std::string plain_log = temp_path("ft2_teltest_null_plain.jsonl");
  std::remove(plain_log.c_str());
  const ShardRunResult plain = run_campaign_shard(
      model, inputs, scheme, bounds, config, manifest, plain_log, false);
  EXPECT_EQ(plain.executed, total);
  EXPECT_EQ(scan_shard_log(plain_log).records.size(), total);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ShardTelemetryConfig telemetry;
  telemetry.fd = fds[1];
  telemetry.interval_ms = 0;
  const std::string tel_log = temp_path("ft2_teltest_null_tel.jsonl");
  std::remove(tel_log.c_str());
  const ShardRunResult piped = run_campaign_shard(
      model, inputs, scheme, bounds, config, manifest, tel_log, false,
      telemetry);
  close(fds[1]);
  EXPECT_EQ(piped.executed, total);
  const std::vector<TrialRecord> records = scan_shard_log(tel_log).records;
  EXPECT_EQ(records.size(), total);
  EXPECT_EQ(timeless_dump(scan_shard_log(plain_log).records),
            timeless_dump(records));

  const std::vector<ShardFrame> frames = drain_frames(fds[0]);
  close(fds[0]);
  ASSERT_GE(frames.size(), 2u);
  for (const ShardFrame& f : frames) {
    EXPECT_TRUE(f.metrics.counters.empty());
    EXPECT_TRUE(f.metrics.gauges.empty());
    EXPECT_TRUE(f.metrics.histograms.empty());
  }
  EXPECT_TRUE(frames.back().final_frame);
  EXPECT_EQ(frames.back().done, total);

  std::remove(plain_log.c_str());
  std::remove(tel_log.c_str());
}

}  // namespace
}  // namespace ft2
