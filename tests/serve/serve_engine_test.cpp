// Bit-exactness of the continuous-batching serve engine against per-session
// InferenceSession::generate:
//   - token streams, positions_run and hit_max identical for batches of
//     mixed-length prompts at any max_batch, greedy and seeded top-k;
//   - hook traffic (per-site rows, positions, order) identical per request;
//   - protection stats and online bounds identical per request;
//   - staggered admission (mid-flight join/leave) changes nothing;
//   - engine counters stay consistent with the work performed.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model(ArchFamily arch) {
  ModelConfig c;
  c.arch = arch;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 24;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 32;
  c.max_seq = 96;
  switch (arch) {
    case ArchFamily::kOpt:
      c.activation = Activation::kRelu;
      c.norm = NormKind::kLayerNorm;
      c.position = PositionKind::kLearned;
      c.linear_bias = true;
      break;
    case ArchFamily::kGptj:
      c.activation = Activation::kGelu;
      c.norm = NormKind::kLayerNorm;
      c.position = PositionKind::kRotary;
      c.parallel_block = true;
      c.linear_bias = true;
      break;
    case ArchFamily::kLlama:
      c.activation = Activation::kSilu;
      c.norm = NormKind::kRmsNorm;
      c.position = PositionKind::kRotary;
      c.linear_bias = false;
      break;
  }
  Xoshiro256 rng(41);
  return TransformerLM(c, init_weights(c, rng));
}

/// Mixed-length prompts: request r gets a distinct prompt of length
/// 3 + (r * 5) % 11 so batched sequences decode at staggered positions.
std::vector<std::vector<int>> mixed_prompts(const TransformerLM& model,
                                            std::size_t n) {
  std::vector<std::vector<int>> prompts;
  const int vocab = static_cast<int>(model.config().vocab_size);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<int> prompt = {Vocab::kBos};
    const std::size_t len = 3 + (r * 5) % 11;
    for (std::size_t i = 1; i < len; ++i) {
      prompt.push_back(static_cast<int>(r * 17 + i * 7 + 3) % vocab);
    }
    prompts.push_back(std::move(prompt));
  }
  return prompts;
}

/// Per-request options with staggered generation lengths so requests leave
/// the batch at different steps (continuous batching's churn case).
std::vector<GenerateOptions> mixed_options(std::size_t n) {
  const std::size_t lengths[] = {3, 10, 6, 1, 8, 5, 12, 2};
  std::vector<GenerateOptions> all(n);
  for (std::size_t r = 0; r < n; ++r) {
    all[r].max_new_tokens = lengths[r % std::size(lengths)];
    all[r].eos_token = -1;
  }
  return all;
}

std::vector<GenerateResult> run_sessions(
    const TransformerLM& model, const std::vector<std::vector<int>>& prompts,
    const std::vector<GenerateOptions>& options) {
  std::vector<GenerateResult> results;
  for (std::size_t r = 0; r < prompts.size(); ++r) {
    InferenceSession session(model);
    results.push_back(session.generate(prompts[r], options[r]));
  }
  return results;
}

void expect_equal_results(const GenerateResult& got, const GenerateResult& ref,
                          std::size_t r, const char* what) {
  EXPECT_EQ(got.tokens, ref.tokens) << what << ": request " << r;
  EXPECT_EQ(got.positions_run, ref.positions_run) << what << ": request " << r;
  EXPECT_EQ(got.hit_max, ref.hit_max) << what << ": request " << r;
}

TEST(ServeEngine, GreedyBatchesMatchPerSessionGenerate) {
  for (ArchFamily arch :
       {ArchFamily::kOpt, ArchFamily::kGptj, ArchFamily::kLlama}) {
    const TransformerLM model = micro_model(arch);
    for (std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      const auto prompts = mixed_prompts(model, batch);
      const auto options = mixed_options(batch);
      const auto ref = run_sessions(model, prompts, options);

      ServeOptions serve_opts;
      serve_opts.max_batch = batch;
      ServeEngine engine(model, serve_opts);
      std::vector<RequestId> ids;
      for (std::size_t r = 0; r < batch; ++r) {
        ids.push_back(engine.submit(prompts[r], options[r]));
      }
      engine.run();
      for (std::size_t r = 0; r < batch; ++r) {
        ASSERT_TRUE(engine.finished(ids[r]));
        expect_equal_results(engine.result(ids[r]), ref[r], r, "greedy");
      }
    }
  }
}

TEST(ServeEngine, SeededSamplingMatchesPerSessionGenerate) {
  const TransformerLM model = micro_model(ArchFamily::kLlama);
  const std::size_t batch = 5;
  const auto prompts = mixed_prompts(model, batch);
  auto options = mixed_options(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    options[r].temperature = 0.9f;
    options[r].top_k = 3 + r;  // distinct top-k per request
    options[r].sample_seed = 100 + r;
  }
  const auto ref = run_sessions(model, prompts, options);

  ServeEngine engine(model);
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < batch; ++r) {
    ids.push_back(engine.submit(prompts[r], options[r]));
  }
  engine.run();
  for (std::size_t r = 0; r < batch; ++r) {
    expect_equal_results(engine.result(ids[r]), ref[r], r, "sampled");
    EXPECT_FALSE(engine.result(ids[r]).tokens.empty());
  }
}

TEST(ServeEngine, StaggeredAdmissionMatchesPerSessionGenerate) {
  const TransformerLM model = micro_model(ArchFamily::kLlama);
  const std::size_t total = 6;
  const auto prompts = mixed_prompts(model, total);
  const auto options = mixed_options(total);
  const auto ref = run_sessions(model, prompts, options);

  // max_batch 2 with submissions trickling in while earlier requests are
  // mid-decode: requests join as slots free up and leave at different
  // steps. Per-request results must be oblivious to all of it.
  ServeOptions serve_opts;
  serve_opts.max_batch = 2;
  ServeEngine engine(model, serve_opts);
  std::vector<RequestId> ids;
  ids.push_back(engine.submit(prompts[0], options[0]));
  ids.push_back(engine.submit(prompts[1], options[1]));
  std::size_t next = 2;
  while (engine.queue_depth() > 0 || engine.active_requests() > 0 ||
         next < total) {
    engine.step();
    if (next < total) {  // one new request per step while any remain
      ids.push_back(engine.submit(prompts[next], options[next]));
      ++next;
    }
  }
  for (std::size_t r = 0; r < total; ++r) {
    ASSERT_TRUE(engine.finished(ids[r]));
    expect_equal_results(engine.result(ids[r]), ref[r], r, "staggered");
  }
  EXPECT_EQ(engine.counters().completed, total);
  EXPECT_LE(engine.counters().max_active, serve_opts.max_batch);
}

/// Expands every dispatch into per-position rows, grouped by layer site.
class SiteRecorder : public OutputHook {
 public:
  struct Observation {
    std::size_t position;
    bool first_token;
    std::vector<float> values;

    bool operator==(const Observation&) const = default;
  };
  using Key = std::pair<int, int>;  // (block, LayerKind)

  void on_output(const HookContext& ctx, std::span<float> values) override {
    auto& seq = by_site_[{ctx.site.block, static_cast<int>(ctx.site.kind)}];
    for (std::size_t r = 0; r < ctx.n_positions; ++r) {
      const auto row = ctx.row(values, r);
      seq.push_back({ctx.position_at(r), ctx.first_token_phase,
                     std::vector<float>(row.begin(), row.end())});
    }
  }
  void on_generation_begin() override { ++begins_; }
  void on_generation_end() override { ++ends_; }

  const std::map<Key, std::vector<Observation>>& by_site() const {
    return by_site_;
  }
  std::size_t begins() const { return begins_; }
  std::size_t ends() const { return ends_; }

 private:
  std::map<Key, std::vector<Observation>> by_site_;
  std::size_t begins_ = 0;
  std::size_t ends_ = 0;
};

TEST(ServeEngine, HookTrafficMatchesPerSessionGenerate) {
  const TransformerLM model = micro_model(ArchFamily::kLlama);
  const std::size_t batch = 3;
  const auto prompts = mixed_prompts(model, batch);
  const auto options = mixed_options(batch);

  std::vector<SiteRecorder> session_rec(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    InferenceSession session(model);
    const auto reg = session.hooks().add(session_rec[r]);
    session.generate(prompts[r], options[r]);
  }

  std::vector<SiteRecorder> serve_rec(batch);
  ServeEngine engine(model);
  std::vector<HookRegistration> regs;
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < batch; ++r) {
    const RequestId id = engine.submit(prompts[r], options[r]);
    regs.push_back(engine.hooks(id).add(serve_rec[r]));
    ids.push_back(id);
  }
  engine.run();

  for (std::size_t r = 0; r < batch; ++r) {
    EXPECT_EQ(serve_rec[r].begins(), 1u) << "request " << r;
    EXPECT_EQ(serve_rec[r].ends(), 1u) << "request " << r;
    ASSERT_FALSE(session_rec[r].by_site().empty());
    ASSERT_EQ(session_rec[r].by_site().size(), serve_rec[r].by_site().size())
        << "request " << r;
    for (const auto& [site, ref_obs] : session_rec[r].by_site()) {
      const auto it = serve_rec[r].by_site().find(site);
      ASSERT_NE(it, serve_rec[r].by_site().end())
          << "request " << r << " site (" << site.first << ", " << site.second
          << ")";
      ASSERT_EQ(ref_obs.size(), it->second.size())
          << "request " << r << " site (" << site.first << ", " << site.second
          << ")";
      for (std::size_t i = 0; i < ref_obs.size(); ++i) {
        EXPECT_EQ(ref_obs[i], it->second[i])
            << "request " << r << " site (" << site.first << ", "
            << site.second << ") row " << i;
      }
    }
  }
}

TEST(ServeEngine, ProtectionStateMatchesPerSessionGenerate) {
  const TransformerLM model = micro_model(ArchFamily::kLlama);
  const std::size_t batch = 3;
  const auto prompts = mixed_prompts(model, batch);
  const auto options = mixed_options(batch);
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
  const BoundStore no_offline;

  std::vector<ProtectionStats> ref_stats(batch);
  std::vector<BoundStore> ref_bounds;
  for (std::size_t r = 0; r < batch; ++r) {
    ProtectionHook protection(model.config(), spec, no_offline);
    InferenceSession session(model);
    const auto reg = session.hooks().add(protection);
    session.generate(prompts[r], options[r]);
    ref_stats[r] = protection.stats();
    ref_bounds.push_back(protection.online_bounds());
  }

  std::vector<ProtectionHook> hooks;
  hooks.reserve(batch);  // chains hold raw hook pointers
  std::vector<HookRegistration> regs;
  ServeEngine engine(model);
  for (std::size_t r = 0; r < batch; ++r) {
    hooks.emplace_back(model.config(), spec, no_offline);
    const RequestId id = engine.submit(prompts[r], options[r]);
    regs.push_back(engine.hooks(id).add(hooks.back()));
  }
  engine.run();

  for (std::size_t r = 0; r < batch; ++r) {
    EXPECT_EQ(hooks[r].stats().values_checked, ref_stats[r].values_checked)
        << "request " << r;
    EXPECT_EQ(hooks[r].stats().oob_corrected, ref_stats[r].oob_corrected)
        << "request " << r;
    EXPECT_EQ(hooks[r].stats().nan_corrected, ref_stats[r].nan_corrected)
        << "request " << r;
    for (std::size_t b = 0; b < model.config().n_blocks; ++b) {
      for (std::size_t k = 0; k < kLayerKindCount; ++k) {
        const LayerSite site{static_cast<int>(b), static_cast<LayerKind>(k)};
        const Bounds& got = hooks[r].online_bounds().at(site);
        const Bounds& want = ref_bounds[r].at(site);
        EXPECT_EQ(got.lo, want.lo) << "request " << r << " block " << b;
        EXPECT_EQ(got.hi, want.hi) << "request " << r << " block " << b;
      }
    }
  }
}

TEST(ServeEngine, ZeroMaxNewTokensFinishesWithoutSampling) {
  const TransformerLM model = micro_model(ArchFamily::kOpt);
  const auto prompts = mixed_prompts(model, 1);
  GenerateOptions opts;
  opts.max_new_tokens = 0;

  InferenceSession session(model);
  const auto ref = session.generate(prompts[0], opts);

  ServeEngine engine(model);
  const RequestId id = engine.submit(prompts[0], opts);
  engine.run();
  expect_equal_results(engine.result(id), ref, 0, "max_new=0");
  EXPECT_TRUE(engine.result(id).tokens.empty());
  EXPECT_EQ(engine.counters().decode_steps, 0u);
}

TEST(ServeEngine, CountersAreConsistentWithWorkDone) {
  const TransformerLM model = micro_model(ArchFamily::kLlama);
  const std::size_t batch = 4;
  const auto prompts = mixed_prompts(model, batch);
  const auto options = mixed_options(batch);

  ServeOptions serve_opts;
  serve_opts.max_batch = 2;
  ServeEngine engine(model, serve_opts);
  EXPECT_EQ(engine.resident_cache_bytes(), 0u);
  std::vector<RequestId> ids;
  std::size_t expected_prefill = 0;
  for (std::size_t r = 0; r < batch; ++r) {
    ids.push_back(engine.submit(prompts[r], options[r]));
    expected_prefill += prompts[r].size();
  }
  // Paged mode (the default) maps no physical blocks until admission, so
  // queued requests cost nothing. Block-granular growth and shared-block
  // dedup are covered in scheduler_test.cpp.
  EXPECT_EQ(engine.resident_cache_bytes(), 0u);
  EXPECT_EQ(engine.counters().submitted, batch);
  EXPECT_EQ(engine.queue_depth(), batch);
  engine.run();

  const ServeCounters& c = engine.counters();
  EXPECT_EQ(c.completed, batch);
  EXPECT_EQ(c.prefill_positions, expected_prefill);
  EXPECT_EQ(c.max_queue_depth, batch);
  EXPECT_LE(c.max_active, serve_opts.max_batch);
  EXPECT_GT(c.decode_steps, 0u);
  EXPECT_GE(c.decode_rows, c.decode_steps);
  EXPECT_GT(c.avg_decode_batch(), 0.0);
  std::size_t expected_tokens = 0;
  for (std::size_t r = 0; r < batch; ++r) {
    expected_tokens += engine.result(ids[r]).tokens.size();
    const RequestStats& stats = engine.request_stats(ids[r]);
    EXPECT_EQ(stats.prompt_tokens, prompts[r].size());
    EXPECT_EQ(stats.generated_tokens, engine.result(ids[r]).tokens.size());
  }
  EXPECT_EQ(c.generated_tokens, expected_tokens);
  EXPECT_EQ(engine.resident_cache_bytes(), 0u);  // all retired
}

TEST(ServeEngine, MixedExecConfigsBatchTogether) {
  const TransformerLM model = micro_model(ArchFamily::kLlama);
  const std::size_t batch = 4;
  const auto prompts = mixed_prompts(model, batch);
  auto options = mixed_options(batch);
  options[1].fp16 = false;
  options[2].chunked_accum = true;
  options[3].fp16 = false;
  options[3].chunked_accum = true;
  const auto ref = run_sessions(model, prompts, options);

  ServeEngine engine(model);
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < batch; ++r) {
    ids.push_back(engine.submit(prompts[r], options[r]));
  }
  engine.run();
  for (std::size_t r = 0; r < batch; ++r) {
    expect_equal_results(engine.result(ids[r]), ref[r], r, "mixed exec");
  }
}

// release(id) frees a finished request: the id is unknown from then on.
// A request that has not finished cannot be released.
TEST(ServeEngine, ReleaseFreesOnlyFinishedRequests) {
  const TransformerLM model = micro_model(ArchFamily::kOpt);
  const auto prompts = mixed_prompts(model, 3);
  GenerateOptions opts;
  opts.max_new_tokens = 4;
  opts.eos_token = -1;
  ServeEngine engine(model);
  const RequestId a = engine.submit(prompts[0], opts);
  const RequestId b = engine.submit(prompts[1], opts);
  const RequestId c = engine.submit(prompts[2], opts);
  EXPECT_THROW(engine.release(a), Error);  // queued
  engine.step();
  ASSERT_FALSE(engine.finished(a));
  EXPECT_THROW(engine.release(a), Error);  // decoding
  EXPECT_TRUE(engine.cancel(c));
  engine.run();

  const GenerateResult kept = engine.result(a);
  engine.release(a);
  EXPECT_THROW(engine.result(a), Error);
  EXPECT_THROW(engine.hooks(a), Error);
  EXPECT_THROW(engine.finished(a), Error);
  EXPECT_THROW(engine.request_stats(a), Error);
  EXPECT_THROW(engine.release(a), Error);  // already gone
  engine.release(c);                        // cancelled counts as finished
  EXPECT_THROW(engine.result(c), Error);
  EXPECT_EQ(engine.result(b).tokens.size(), 4u);  // others untouched
  EXPECT_EQ(kept.tokens.size(), 4u);
}

// An engine publishes only to the sinks it is given: a session's engine and
// a serving engine built with default options run with null sinks, publish
// nothing and produce the tokens of an engine that publishes to both.
TEST(ServeEngine, SessionEnginesPublishNoMetricsOrSpans) {
  const TransformerLM model = micro_model(ArchFamily::kOpt);
  const auto prompts = mixed_prompts(model, 1);
  GenerateOptions opts;
  opts.max_new_tokens = 3;
  opts.eos_token = -1;
  MetricsRegistry registry;
  Tracer tracer(64, /*enabled=*/true);

  InferenceSession session(model);
  const GenerateResult solo = session.generate(prompts[0], opts);
  ServeEngine bare(model);
  const RequestId bare_id = bare.submit(prompts[0], opts);
  bare.run();
  EXPECT_EQ(bare.result(bare_id).tokens, solo.tokens);
  EXPECT_TRUE(registry.snapshot().counters.empty());
  EXPECT_EQ(tracer.recorded(), 0u);

  ServeOptions serve_opts;
  serve_opts.obs = ObsSinks{&registry, &tracer};
  ServeEngine engine(model, serve_opts);
  const RequestId id = engine.submit(prompts[0], opts);
  engine.run();
  EXPECT_EQ(engine.result(id).tokens, solo.tokens);
  EXPECT_EQ(registry.snapshot().counter_value("serve.requests.submitted"), 1u);
  std::size_t serve_spans = 0;
  for (const TraceEvent& e : tracer.events()) {
    serve_spans += e.name.rfind("serve.", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(serve_spans, 0u);
}

// A fork is a request: batched with ordinary requests on a serving engine,
// it restores its rows through the swap-resume path (no prefill positions,
// no eviction) and reproduces the recording, as a solo resume_from does.
TEST(ServeEngine, ForksBatchWithRequestsAndRestoreWithoutPrefill) {
  const TransformerLM model = micro_model(ArchFamily::kGptj);
  const auto prompts = mixed_prompts(model, 3);
  auto options = mixed_options(3);
  options[0].max_new_tokens = 10;
  SessionSnapshot snap;
  InferenceSession recorder(model);
  const GenerateResult recorded =
      recorder.generate_recorded(prompts[0], options[0], snap);
  ASSERT_TRUE(snap.valid());
  const auto ref = run_sessions(model, prompts, options);

  ServeOptions so;
  so.max_batch = 4;
  MetricsRegistry registry;
  so.obs.metrics = &registry;
  ServeEngine engine(model, so);
  const RequestId r1 = engine.submit(prompts[1], options[1]);
  std::vector<RequestId> forks;
  std::vector<std::size_t> resumed;
  for (const std::size_t pos :
       {snap.prompt_len, snap.prompt_len + 4, snap.last_boundary()}) {
    forks.push_back(engine.submit_fork(snap, pos, [&resumed, pos] {
      resumed.push_back(pos);
    }));
  }
  const RequestId r2 = engine.submit(prompts[2], options[2]);
  // Queued forks hold no rows of their own: the snapshot is shared.
  EXPECT_EQ(engine.resident_cache_bytes(), 0u);
  engine.run();

  expect_equal_results(engine.result(r1), ref[1], 1, "beside forks");
  expect_equal_results(engine.result(r2), ref[2], 2, "beside forks");
  for (const RequestId id : forks) {
    expect_equal_results(engine.result(id), recorded, id, "fork");
  }
  EXPECT_EQ(resumed, (std::vector<std::size_t>{snap.prompt_len,
                                               snap.prompt_len + 4,
                                               snap.last_boundary()}));
  // Only the two ordinary requests prefilled; every fork's rows came from
  // the snapshot.
  EXPECT_EQ(engine.counters().prefill_positions,
            prompts[1].size() + prompts[2].size());
  EXPECT_EQ(engine.counters().preemptions, 0u);
  EXPECT_EQ(engine.counters().completed, 5u);
  EXPECT_EQ(engine.resident_cache_bytes(), 0u);
  EXPECT_THROW(engine.submit_fork(snap, snap.prompt_len - 1), Error);
  EXPECT_THROW(engine.submit_fork(snap, snap.last_boundary() + 1), Error);
}

}  // namespace
}  // namespace ft2
