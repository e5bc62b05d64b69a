#include "fi/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "fi/report.hpp"

namespace ft2 {
namespace {

TrialRecord make_record(std::size_t trial, Outcome outcome) {
  TrialRecord r;
  r.trial = trial;
  r.input_index = trial % 3;
  r.plan.position = 10 + trial;
  r.plan.site = {1, LayerKind::kVProj};
  r.plan.neuron = 7;
  r.plan.flips.count = 2;
  r.plan.flips.bits = {14, 3};
  r.plan.in_first_token = trial == 0;
  r.outcome = outcome;
  r.generated_text = "bob lives in paris";
  r.fault_model = FaultModel::kDoubleBit;
  r.fired = true;
  r.nan_detections = 1;
  r.oob_detections = 2;
  r.detections = 3;
  r.detect_position = static_cast<long long>(r.plan.position) + 1;
  r.injected_original = 0.125f;
  r.injected_value = -3.5f;
  r.clips = {{LayerKind::kVProj, 11, 123.456f},
             {LayerKind::kFc2, 12, -9.25f}};
  return r;
}

TEST(Trace, CollectsViaCallback) {
  TraceCollector collector;
  auto cb = collector.callback();
  cb(make_record(0, Outcome::kMaskedIdentical));
  cb(make_record(1, Outcome::kSdc));
  cb(make_record(2, Outcome::kSdc));
  EXPECT_EQ(collector.size(), 3u);
  EXPECT_EQ(aggregate_trial_records(collector.records()).result.sdc, 2u);
  collector.clear();
  EXPECT_EQ(collector.size(), 0u);
}

TEST(Trace, CsvFormat) {
  TraceCollector collector;
  collector.callback()(make_record(5, Outcome::kSdc));
  std::ostringstream os;
  collector.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("trial,input,position"), std::string::npos);
  EXPECT_NE(csv.find("V_PROJ"), std::string::npos);
  EXPECT_NE(csv.find("14+3"), std::string::npos);
  EXPECT_NE(csv.find("sdc"), std::string::npos);
  EXPECT_NE(csv.find("\"bob lives in paris\""), std::string::npos);
  // Header + one data row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Trace, JsonFormat) {
  TraceCollector collector;
  collector.callback()(make_record(1, Outcome::kMaskedSemantic));
  const Json j = collector.to_json();
  EXPECT_TRUE(j.is_array());
  EXPECT_EQ(j.size(), 1u);
  const std::string s = j.dump(-1);
  EXPECT_NE(s.find("\"outcome\": \"masked_semantic\""), std::string::npos);
  EXPECT_NE(s.find("\"layer\": \"V_PROJ\""), std::string::npos);
}

TEST(Trace, OutcomeNames) {
  EXPECT_STREQ(outcome_name(Outcome::kSdc), "sdc");
  EXPECT_STREQ(outcome_name(Outcome::kMaskedIdentical), "masked_identical");
  EXPECT_STREQ(outcome_name(Outcome::kNotInjected), "not_injected");
}

TEST(Trace, FieldOrderIsSharedAcrossFormats) {
  // CSV columns and JSON keys must agree exactly — both come from
  // trial_record_fields(), the single source of truth.
  TraceCollector collector;
  collector.callback()(make_record(0, Outcome::kSdc));
  std::ostringstream os;
  collector.write_csv(os);
  const std::string header = os.str().substr(0, os.str().find('\n'));

  const Json obj = trial_record_to_json(collector.records()[0]);
  std::string joined;
  for (const std::string& key : obj.keys()) {
    if (!joined.empty()) joined += ',';
    joined += key;
  }
  EXPECT_EQ(header, joined);
  // Pin the schema: renaming/reordering a field is a format break and must
  // be a conscious decision.
  EXPECT_EQ(joined,
            "trial,input,position,in_first_token,block,layer,neuron,bits,"
            "dtype,outcome,generated,fault_model,fired,detections,"
            "nan_detections,oob_detections,detect_position,"
            "injected_original,injected_value,clips,scheme,trial_ms");
}

std::string jsonl_of(const std::vector<TrialRecord>& records) {
  std::ostringstream os;
  for (const TrialRecord& r : records) {
    trial_record_to_json(r).write(os, -1);
    os << '\n';
  }
  return os.str();
}

TEST(Trace, CsvRoundTripsIncludingAwkwardValues) {
  TraceCollector collector;
  auto cb = collector.callback();
  TrialRecord tricky = make_record(0, Outcome::kSdc);
  tricky.generated_text = "says \"hi\", twice";  // embedded quote + comma
  tricky.injected_value = std::numeric_limits<float>::infinity();
  tricky.injected_original = std::numeric_limits<float>::quiet_NaN();
  cb(tricky);
  cb(make_record(1, Outcome::kMaskedIdentical));
  TrialRecord bare = make_record(2, Outcome::kNotInjected);
  bare.fired = false;
  bare.clips.clear();
  bare.generated_text.clear();
  cb(bare);

  std::ostringstream os;
  collector.write_csv(os);
  std::istringstream is(os.str());
  const std::vector<TrialRecord> loaded = read_trial_records_csv(is);
  ASSERT_EQ(loaded.size(), collector.size());
  // Bit-for-bit: re-serializing the loaded records reproduces the
  // original text (inf/nan survive via the %.9g string encoding).
  EXPECT_EQ(jsonl_of(loaded), jsonl_of(collector.records()));
  EXPECT_TRUE(std::isinf(loaded[0].injected_value));
  EXPECT_TRUE(std::isnan(loaded[0].injected_original));
  EXPECT_EQ(loaded[0].generated_text, "says \"hi\", twice");
  ASSERT_EQ(loaded[0].clips.size(), 2u);
  EXPECT_EQ(loaded[0].clips[1].kind, LayerKind::kFc2);
  EXPECT_EQ(loaded[0].clips[1].position, 12u);
  EXPECT_FLOAT_EQ(loaded[0].clips[1].original, -9.25f);
  EXPECT_EQ(loaded[0].detect_position, 11);
  EXPECT_EQ(loaded[2].detect_position, 13);
  EXPECT_FALSE(loaded[2].fired);
}

TEST(Trace, JsonlAndJsonRoundTrip) {
  TraceCollector collector;
  auto cb = collector.callback();
  cb(make_record(0, Outcome::kMaskedSemantic));
  cb(make_record(1, Outcome::kSdc));

  std::ostringstream jl;
  collector.write_jsonl(jl);
  std::istringstream jl_in(jl.str());
  const auto from_jsonl = read_trial_records_jsonl(jl_in);
  ASSERT_EQ(from_jsonl.size(), 2u);
  EXPECT_EQ(jsonl_of(from_jsonl), jl.str());

  const auto from_json = read_trial_records_json(
      Json::parse(collector.to_json().dump(2)));
  ASSERT_EQ(from_json.size(), 2u);
  EXPECT_EQ(jsonl_of(from_json), jl.str());
}

TEST(Trace, BitsFieldRejectsMalformedIndices) {
  const auto read_bits = [](const std::string& bits) {
    std::istringstream is("{\"trial\": 4, \"layer\": \"FC1\", \"bits\": \"" +
                          bits + "\"}\n");
    return read_trial_records_jsonl(is);
  };
  for (const char* bad : {"abc", "99", "32", "1+", "+1", "1++2", "3x", "-1",
                          " 3", "007"}) {
    EXPECT_THROW(read_bits(bad), Error) << "'" << bad << "'";
  }
  const auto ok = read_bits("0+31");
  ASSERT_EQ(ok.size(), 1u);
  ASSERT_EQ(ok[0].plan.flips.count, 2);
  EXPECT_EQ(ok[0].plan.flips.bits[0], 0);
  EXPECT_EQ(ok[0].plan.flips.bits[1], 31);
  EXPECT_EQ(read_bits("")[0].plan.flips.count, 0);
}

// Integer fields parse through one checked reader: a value a bare cast
// would turn into undefined behaviour (-1 or 1e300 into std::size_t), a
// fraction, or text throws ft2::Error instead of reading as some number.
TEST(Trace, IntegerFieldsRejectValuesOutsideTheirRangeInJsonl) {
  const auto read = [](const std::string& field, const std::string& value) {
    std::istringstream is("{\"layer\": \"FC1\", \"" + field + "\": " +
                          value + "}\n");
    return read_trial_records_jsonl(is);
  };
  for (const char* field : {"trial", "input", "position", "block", "neuron",
                            "detections", "nan_detections",
                            "oob_detections"}) {
    for (const char* bad : {"-1", "1e300", "2.5", "\"abc\"", "\"\"", "true",
                            "null"}) {
      EXPECT_THROW(read(field, bad), Error) << field << " = " << bad;
    }
    EXPECT_NO_THROW(read(field, "7")) << field;
    EXPECT_NO_THROW(read(field, "\"7\"")) << field;
  }
  EXPECT_EQ(read("trial", "7")[0].trial, 7u);
  EXPECT_EQ(read("neuron", "9007199254740992")[0].plan.neuron,
            std::size_t{1} << 53);
  for (const char* bad : {"-2", "2.5", "1e300", "\"x\""}) {
    EXPECT_THROW(read("detect_position", bad), Error) << bad;
  }
  EXPECT_EQ(read("detect_position", "-1")[0].detect_position, -1);
  EXPECT_EQ(read("detect_position", "12")[0].detect_position, 12);
}

TEST(Trace, IntegerCellsRejectTextInCsv) {
  const auto read = [](const std::string& header, const std::string& cell) {
    std::istringstream is("layer," + header + "\nFC1," + cell + "\n");
    return read_trial_records_csv(is);
  };
  for (const char* field : {"trial", "input", "position", "block", "neuron",
                            "detections", "nan_detections",
                            "oob_detections"}) {
    for (const char* bad : {"abc", "", "-1", "2.5", "1e300", " 3", "+3", "3x",
                            "99999999999999999999"}) {
      EXPECT_THROW(read(field, bad), Error) << field << " = '" << bad << "'";
    }
    EXPECT_NO_THROW(read(field, "3")) << field;
  }
  EXPECT_EQ(read("position", "41")[0].plan.position, 41u);
  EXPECT_THROW(read("detect_position", "-2"), Error);
  EXPECT_EQ(read("detect_position", "-1")[0].detect_position, -1);
  EXPECT_THROW(read("fired", "abc"), Error);
  EXPECT_THROW(read("fired", "2"), Error);
  EXPECT_TRUE(read("fired", "1")[0].fired);
  EXPECT_THROW(read("trial_ms", "fast"), Error);
  EXPECT_THROW(read("clips", "FC1@x:1.5"), Error);
  EXPECT_THROW(read("clips", "FC1@-4:1.5"), Error);
  EXPECT_EQ(read("clips", "FC1@4:1.5")[0].clips.at(0).position, 4u);
}

TEST(Trace, MissingTrailingFieldsDefault) {
  // Logs recorded before a field existed still load: a pre-forensics JSONL
  // line without the newer keys parses with defaults.
  std::istringstream is(
      "{\"trial\": 4, \"position\": 9, \"layer\": \"FC1\", "
      "\"outcome\": \"sdc\"}\n");
  const auto loaded = read_trial_records_jsonl(is);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].trial, 4u);
  EXPECT_EQ(loaded[0].plan.site.kind, LayerKind::kFc1);
  EXPECT_EQ(loaded[0].outcome, Outcome::kSdc);
  EXPECT_EQ(loaded[0].fault_model, FaultModel::kSingleBit);
  EXPECT_FALSE(loaded[0].fired);
  EXPECT_EQ(loaded[0].detect_position, -1);
  EXPECT_TRUE(loaded[0].clips.empty());
}

TEST(Trace, StreamingSinkAndMemoryCap) {
  std::ostringstream sink;
  TraceCollector collector(&sink, /*max_records=*/2);
  auto cb = collector.callback();
  for (std::size_t i = 0; i < 5; ++i) cb(make_record(i, Outcome::kSdc));

  // Every record streams to the sink; memory holds only the capped prefix.
  EXPECT_EQ(collector.recorded(), 5u);
  EXPECT_EQ(collector.size(), 2u);
  std::istringstream is(sink.str());
  const auto streamed = read_trial_records_jsonl(is);
  ASSERT_EQ(streamed.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(streamed[i].trial, i);
  // The streamed lines are exactly the JSONL serialization.
  EXPECT_EQ(sink.str(), jsonl_of(streamed));
}

TEST(Trace, NameInverses) {
  for (Outcome o : {Outcome::kMaskedIdentical, Outcome::kMaskedSemantic,
                    Outcome::kSdc, Outcome::kNotInjected}) {
    EXPECT_EQ(outcome_from_name(outcome_name(o)), o);
  }
  for (FaultModel m : all_fault_models()) {
    EXPECT_EQ(fault_model_from_name(fault_model_name(m)), m);
  }
  EXPECT_EQ(value_type_from_name("fp16"), ValueType::kF16);
  EXPECT_EQ(value_type_from_name("fp32"), ValueType::kF32);
  EXPECT_THROW(outcome_from_name("bogus"), Error);
  EXPECT_THROW(fault_model_from_name("bogus"), Error);
  EXPECT_THROW(value_type_from_name("bogus"), Error);
}

TEST(Trace, CampaignIntegration) {
  // Run a tiny campaign with tracing and check record consistency.
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 1;
  c.d_ff = 24;
  c.max_seq = 96;
  Xoshiro256 rng(4);
  const TransformerLM model(c, init_weights(c, rng));

  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 5);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  CampaignConfig config;
  config.trials_per_input = 10;
  config.gen_tokens = 6;

  TraceCollector collector;
  const auto result =
      run_campaign(model, inputs, scheme_spec(SchemeKind::kNone, c),
                   BoundStore{}, config, collector.callback());
  EXPECT_EQ(collector.size(), result.trials);
  std::size_t sdc_in_trace = 0;
  for (const auto& r : collector.records()) {
    EXPECT_LT(r.input_index, inputs.size());
    if (r.outcome == Outcome::kSdc) ++sdc_in_trace;
  }
  EXPECT_EQ(sdc_in_trace, result.sdc);
}

TEST(Trace, TornTailRejectedEvenWhenItParsesAsJson) {
  // The dangerous torn write: truncation lands exactly on a '}' so the
  // fragment parses as valid JSON for a prefix of the record's fields.
  // Missing the trailing newline is what gives it away.
  std::string log = jsonl_of({make_record(0, Outcome::kSdc),
                              make_record(1, Outcome::kMaskedIdentical)});
  log += "{\"trial\": 2, \"input\": 1}";  // no newline
  {
    std::istringstream is(log);
    EXPECT_THROW(read_trial_records_jsonl(is), Error);
  }
  std::istringstream is(log);
  const JsonlScan scan = scan_trial_records_jsonl(is);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.torn_line, "{\"trial\": 2, \"input\": 1}");
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].trial, 1u);
  // valid_bytes is exactly the intact prefix: truncating there drops only
  // the torn fragment.
  EXPECT_EQ(scan.valid_bytes, log.size() - scan.torn_line.size());
  EXPECT_EQ(log.substr(0, scan.valid_bytes),
            jsonl_of({make_record(0, Outcome::kSdc),
                      make_record(1, Outcome::kMaskedIdentical)}));
}

TEST(Trace, TornTailCutMidLineRejectedAndScanned) {
  const std::string intact = jsonl_of({make_record(0, Outcome::kSdc)});
  std::string log = intact + jsonl_of({make_record(1, Outcome::kSdc)});
  log.resize(log.size() - 17);  // cut inside the final record
  {
    std::istringstream is(log);
    EXPECT_THROW(read_trial_records_jsonl(is), Error);
  }
  std::istringstream is(log);
  const JsonlScan scan = scan_trial_records_jsonl(is);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, intact.size());
}

TEST(Trace, NewlineTerminatedGarbageFinalLineIsTorn) {
  // A crash can flush the newline without the whole line before it; the
  // final line gets the benefit of the doubt, interior lines do not.
  const std::string intact = jsonl_of({make_record(0, Outcome::kSdc)});
  std::istringstream tail_garbage(intact + "{\"trial\": 1, \"inp\n");
  const JsonlScan scan = scan_trial_records_jsonl(tail_garbage);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, intact.size());

  std::istringstream mid_garbage(intact + "{\"trial\": 1, \"inp\n" + intact);
  EXPECT_THROW(scan_trial_records_jsonl(mid_garbage), Error);
}

TEST(Trace, CleanLogScansComplete) {
  const std::string log = jsonl_of(
      {make_record(0, Outcome::kSdc), make_record(1, Outcome::kSdc)});
  std::istringstream is(log);
  const JsonlScan scan = scan_trial_records_jsonl(is);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, log.size());
  EXPECT_TRUE(scan.manifests.empty());
}

TEST(Trace, ShardManifestLinesAreSkippedByRecordReaders) {
  std::string log = "{\"ft2_shard\": 1, \"model\": \"opt-xs\"}\n";
  log += jsonl_of({make_record(0, Outcome::kSdc)});
  std::istringstream strict(log);
  const auto records = read_trial_records_jsonl(strict);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trial, 0u);
  std::istringstream tolerant(log);
  const JsonlScan scan = scan_trial_records_jsonl(tolerant);
  EXPECT_EQ(scan.manifests.size(), 1u);
  EXPECT_EQ(scan.records.size(), 1u);
}

}  // namespace
}  // namespace ft2
