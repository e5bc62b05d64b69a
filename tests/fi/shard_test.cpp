// Shard lifecycle: partition properties, manifest round-trip and identity
// checks, and the resume contract — a shard killed mid-range (torn JSONL
// tail included) resumes to records bit-identical with an uninterrupted
// run, while a manifest mismatch is refused outright.
#include "fi/shard.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/check.hpp"
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

struct ShardFixture {
  TransformerLM model = micro_model();
  std::vector<EvalInput> inputs;
  SchemeRef scheme = SchemeRef::parse("ft2");
  BoundStore bounds;
  CampaignConfig config;

  ShardFixture() {
    const auto samples =
        make_generator(DatasetKind::kSynthQA)->generate_many(2, 99);
    inputs = prepare_eval_inputs(model, samples, 6, false);
    config.trials_per_input = 15;
    config.gen_tokens = 6;
    config.fault_model = FaultModel::kDoubleBit;
  }

  std::size_t total_trials() const {
    return inputs.size() * config.trials_per_input;
  }

  ShardManifest manifest(std::size_t index, std::size_t count) const {
    const auto ranges = partition_trials(total_trials(), count);
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
    m.total_trials = total_trials();
    m.shard_index = index;
    m.shard_count = count;
    m.first_trial = ranges[index].first;
    m.last_trial = ranges[index].last;
    return m;
  }

  ShardRunResult run_shard(const ShardManifest& m, const std::string& path,
                           bool resume = true) const {
    return run_campaign_shard(model, inputs, scheme, bounds, config, m, path,
                              resume);
  }
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Record serialization with trial_ms zeroed: timing is observational and
/// excluded from determinism comparisons.
std::string timeless_dump(std::vector<TrialRecord> records) {
  std::string out;
  for (TrialRecord& r : records) {
    r.trial_ms = 0.0;
    out += trial_record_to_json(r).dump(-1);
    out += '\n';
  }
  return out;
}

TEST(PartitionTrials, ContiguousCoverWithBalancedSizes) {
  for (std::size_t total : {0u, 1u, 7u, 30u, 1001u}) {
    for (std::size_t shards : {1u, 2u, 3u, 7u, 40u}) {
      const auto ranges = partition_trials(total, shards);
      ASSERT_EQ(ranges.size(), shards);
      EXPECT_EQ(ranges.front().first, 0u);
      EXPECT_EQ(ranges.back().last, total);
      std::size_t min_size = SIZE_MAX, max_size = 0;
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (i > 0) EXPECT_EQ(ranges[i].first, ranges[i - 1].last);
        min_size = std::min(min_size, ranges[i].size());
        max_size = std::max(max_size, ranges[i].size());
      }
      EXPECT_LE(max_size - min_size, 1u) << total << "/" << shards;
    }
  }
  EXPECT_THROW(partition_trials(10, 0), Error);
}

TEST(ShardManifest, JsonRoundTripIsExact) {
  ShardManifest m;
  m.model = "opt-xs";
  m.model_digest = "00ffee0123456789";
  m.dataset = "synthqa";
  m.scheme = "ft2";
  m.fault_model = "EXP";
  m.vtype = "f16";
  m.campaign_seed = 0x8000000000000005ULL;  // needs all 64 bits
  m.trials_per_input = 12500;
  m.gen_tokens = 16;
  m.faults_per_trial = 2;
  m.n_inputs = 40;
  m.total_trials = 500000;
  m.shard_index = 3;
  m.shard_count = 4;
  m.first_trial = 375000;
  m.last_trial = 500000;
  const ShardManifest back = ShardManifest::from_json(m.to_json());
  EXPECT_EQ(m.to_json().dump(-1), back.to_json().dump(-1));
  EXPECT_EQ(back.campaign_seed, m.campaign_seed);
  EXPECT_NO_THROW(m.check_compatible(back, /*same_shard=*/true));
}

TEST(ShardManifest, MismatchNamesTheDivergentFields) {
  ShardManifest a;
  a.model = "opt-xs";
  a.campaign_seed = 42;
  ShardManifest b = a;
  b.campaign_seed = 43;
  b.model_digest = "deadbeef";
  try {
    a.check_compatible(b, /*same_shard=*/false);
    FAIL() << "mismatch not detected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("campaign_seed"), std::string::npos);
    EXPECT_NE(what.find("model_digest"), std::string::npos);
    EXPECT_EQ(what.find("dataset"), std::string::npos);
  }
  // Shard geometry only matters when resuming the same shard.
  ShardManifest c = a;
  c.shard_index = 5;
  c.first_trial = 100;
  EXPECT_NO_THROW(a.check_compatible(c, /*same_shard=*/false));
  EXPECT_THROW(a.check_compatible(c, /*same_shard=*/true), Error);
}

TEST(ShardScan, MissingFileIsAFreshShard) {
  const ShardScan scan = scan_shard_log(temp_path("ft2_no_such_shard.jsonl"));
  EXPECT_FALSE(scan.has_manifest);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn_tail);
}

TEST(ShardResume, TruncatedShardResumesBitIdentically) {
  const ShardFixture fix;
  const ShardManifest manifest = fix.manifest(0, 1);
  const std::string whole_path = temp_path("ft2_shard_whole.jsonl");

  const ShardRunResult whole = fix.run_shard(manifest, whole_path,
                                             /*resume=*/false);
  EXPECT_EQ(whole.executed, fix.total_trials());
  EXPECT_EQ(whole.resumed, 0u);
  const ShardScan whole_scan = scan_shard_log(whole_path);
  ASSERT_EQ(whole_scan.records.size(), fix.total_trials());
  const std::string expect = timeless_dump(whole_scan.records);

  std::string bytes;
  {
    std::ifstream is(whole_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  // Kill points: mid-record (torn tail), exactly on a record boundary, and
  // deep enough to leave only a handful of trials.
  const std::size_t boundary = bytes.rfind('\n', bytes.size() - 2) + 1;
  for (const std::size_t cut :
       {bytes.size() - 19, boundary, bytes.size() / 2, bytes.size() / 4}) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string path = temp_path("ft2_shard_resume.jsonl");
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    const ShardRunResult resumed = fix.run_shard(manifest, path);
    EXPECT_EQ(resumed.resumed + resumed.executed, fix.total_trials());
    EXPECT_GT(resumed.executed, 0u);
    const ShardScan rescan = scan_shard_log(path);
    EXPECT_FALSE(rescan.torn_tail);
    EXPECT_EQ(rescan.resume_from, manifest.last_trial);
    EXPECT_EQ(timeless_dump(rescan.records), expect);
    std::remove(path.c_str());
  }

  // Resuming a complete shard is a no-op that re-runs nothing.
  const ShardRunResult again = fix.run_shard(manifest, whole_path);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.resumed, fix.total_trials());
  std::remove(whole_path.c_str());
}

TEST(ShardResume, TornTailIsDetectedTruncatedAndReRun) {
  const ShardFixture fix;
  const ShardManifest manifest = fix.manifest(0, 1);
  const std::string path = temp_path("ft2_shard_torn.jsonl");
  fix.run_shard(manifest, path, /*resume=*/false);

  // Tear the tail so the fragment still parses as valid JSON for a prefix
  // of fields — the exact failure the strict reader exists to catch.
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  const std::size_t last_line = bytes.rfind('\n', bytes.size() - 2) + 1;
  std::string torn = bytes.substr(0, last_line);
  torn += "{\"trial\": 99999, \"input\": 0}";  // valid JSON, no newline
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << torn;
  }
  const ShardScan scan = scan_shard_log(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, last_line);

  const ShardRunResult resumed = fix.run_shard(manifest, path);
  EXPECT_TRUE(resumed.torn_tail_recovered);
  EXPECT_EQ(resumed.executed, 1u);
  EXPECT_EQ(resumed.resumed, fix.total_trials() - 1);
  const ShardScan rescan = scan_shard_log(path);
  EXPECT_FALSE(rescan.torn_tail);
  EXPECT_EQ(rescan.records.size(), fix.total_trials());
  std::remove(path.c_str());
}

TEST(ShardResume, ManifestMismatchIsRefused) {
  const ShardFixture fix;
  const ShardManifest manifest = fix.manifest(0, 1);
  const std::string path = temp_path("ft2_shard_mismatch.jsonl");
  fix.run_shard(manifest, path, /*resume=*/false);

  ShardManifest wrong_seed = manifest;
  wrong_seed.campaign_seed = 4242;
  EXPECT_THROW(fix.run_shard(wrong_seed, path), Error);

  ShardManifest wrong_scheme = manifest;
  wrong_scheme.scheme = "none";
  EXPECT_THROW(fix.run_shard(wrong_scheme, path), Error);

  ShardManifest wrong_digest = manifest;
  wrong_digest.model_digest = "0123456789abcdef";
  EXPECT_THROW(fix.run_shard(wrong_digest, path), Error);

  // The log is untouched by the refused resumes.
  const ShardScan scan = scan_shard_log(path);
  EXPECT_EQ(scan.records.size(), fix.total_trials());
  std::remove(path.c_str());
}

TEST(ShardMerge, DetectsGapsAndDuplicates) {
  const ShardFixture fix;
  const std::string a_path = temp_path("ft2_shard_m0.jsonl");
  const std::string b_path = temp_path("ft2_shard_m1.jsonl");
  const std::string b2_path = temp_path("ft2_shard_m1_dup.jsonl");
  fix.run_shard(fix.manifest(0, 3), a_path, false);
  fix.run_shard(fix.manifest(1, 3), b_path, false);

  // Shard 2 never ran: its range is a gap.
  const ShardMerge gapped = merge_shard_logs({a_path, b_path});
  EXPECT_FALSE(gapped.complete());
  ASSERT_EQ(gapped.gaps.size(), 1u);
  EXPECT_EQ(gapped.gaps[0].first, fix.manifest(2, 3).first_trial);
  EXPECT_EQ(gapped.gaps[0].last, fix.total_trials());
  EXPECT_EQ(gapped.duplicate_trials, 0u);

  // The same shard twice: every one of its trials is a duplicate.
  std::filesystem::copy_file(b_path, b2_path,
                             std::filesystem::copy_options::overwrite_existing);
  const ShardMerge duped = merge_shard_logs({a_path, b_path, b2_path});
  EXPECT_EQ(duped.duplicate_trials, fix.manifest(1, 3).last_trial -
                                        fix.manifest(1, 3).first_trial);
  EXPECT_FALSE(duped.complete());

  // Identity mismatch refuses to merge at all.
  {
    ShardFixture other;
    other.config.seed = 777;
    other.run_shard(other.manifest(2, 3), temp_path("ft2_shard_m2.jsonl"),
                    false);
  }
  EXPECT_THROW(
      merge_shard_logs({a_path, b_path, temp_path("ft2_shard_m2.jsonl")}),
      Error);

  for (const auto& p : {a_path, b_path, b2_path, temp_path("ft2_shard_m2.jsonl")}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace ft2
