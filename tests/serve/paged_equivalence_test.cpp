// Paged KV storage is a pure storage substitution: for every batch size,
// admission order, prefill budget, KV block size and exec config, the
// engine produces exactly the tokens, positions and hook traffic of solo
// InferenceSession::generate on its dense cache. A block of max_seq rows
// is the dense layout: one block per sequence.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve_test_util.hpp"

namespace ft2 {
namespace {

using serve_test::SiteRecorder;
using serve_test::expect_equal_results;
using serve_test::expect_same_traffic;
using serve_test::micro_model;
using serve_test::mixed_options;
using serve_test::mixed_prompts;
using serve_test::run_sessions;

TEST(PagedEquivalence, MatchesDenseAndSoloAcrossBatchesAndBudgets) {
  const TransformerLM model = micro_model();
  for (std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    const auto prompts = mixed_prompts(model, batch);
    auto options = mixed_options(batch);
    // 3-position chunks so a bounded budget actually spreads prefill over
    // several steps; solo generate uses the identical chunking.
    for (auto& o : options) o.prefill_chunk = 3;
    const auto ref = run_sessions(model, prompts, options);

    const std::size_t max_seq = model.config().max_seq;
    for (std::size_t budget : {std::size_t{0}, std::size_t{3}}) {
      for (std::size_t block_rows : {std::size_t{1}, std::size_t{16},
                                     max_seq}) {
        ServeOptions serve_opts;
        serve_opts.max_batch = batch;
        serve_opts.kv_block_rows = block_rows;
        serve_opts.prefill_chunk_budget = budget;
        ServeEngine engine(model, serve_opts);
        std::vector<RequestId> ids;
        for (std::size_t r = 0; r < batch; ++r) {
          ids.push_back(engine.submit(prompts[r], options[r]));
        }
        engine.run();
        for (std::size_t r = 0; r < batch; ++r) {
          ASSERT_TRUE(engine.finished(ids[r]));
          expect_equal_results(
              engine.result(ids[r]), ref[r], r,
              ("block_rows " + std::to_string(block_rows)).c_str());
        }
        ASSERT_NE(engine.kv_pool(), nullptr);
        EXPECT_EQ(engine.kv_pool()->used_blocks(), 0u);
      }
    }
  }
}

TEST(PagedEquivalence, HookTrafficMatchesSoloUnderChunkedPagedPrefill) {
  const TransformerLM model = micro_model();
  const std::size_t batch = 3;
  const auto prompts = mixed_prompts(model, batch);
  auto options = mixed_options(batch);
  for (auto& o : options) o.prefill_chunk = 4;

  std::vector<SiteRecorder> solo_rec(batch);
  std::vector<GenerateResult> ref;
  for (std::size_t r = 0; r < batch; ++r) {
    InferenceSession session(model);
    const auto reg = session.hooks().add(solo_rec[r]);
    ref.push_back(session.generate(prompts[r], options[r]));
  }

  // Paged + an odd chunk budget: chunks interleave with decode steps of
  // earlier requests, yet per-request dispatch order must be untouched.
  ServeOptions serve_opts;
  serve_opts.max_batch = batch;
  serve_opts.prefill_chunk_budget = 5;
  ServeEngine engine(model, serve_opts);
  std::vector<SiteRecorder> serve_rec(batch);
  std::vector<HookRegistration> regs;
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < batch; ++r) {
    ids.push_back(engine.submit(prompts[r], options[r]));
    regs.push_back(engine.hooks(ids[r]).add(serve_rec[r]));
  }
  engine.run();

  for (std::size_t r = 0; r < batch; ++r) {
    expect_equal_results(engine.result(ids[r]), ref[r], r, "chunked paged");
    expect_same_traffic(solo_rec[r], serve_rec[r], r, "chunked paged");
  }
}

TEST(PagedEquivalence, SeededSamplingAndMixedExecMatchOnPaged) {
  const TransformerLM model = micro_model();
  const std::size_t batch = 4;
  const auto prompts = mixed_prompts(model, batch);
  auto options = mixed_options(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    options[r].temperature = 0.9f;
    options[r].top_k = 3 + r;
    options[r].sample_seed = 100 + r;
  }
  options[1].fp16 = false;
  options[2].chunked_accum = true;
  options[3].fp16 = false;
  options[3].chunked_accum = true;
  const auto ref = run_sessions(model, prompts, options);

  ServeOptions serve_opts;
  serve_opts.prefill_chunk_budget = 6;
  ServeEngine engine(model, serve_opts);
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < batch; ++r) {
    ids.push_back(engine.submit(prompts[r], options[r]));
  }
  engine.run();
  for (std::size_t r = 0; r < batch; ++r) {
    expect_equal_results(engine.result(ids[r]), ref[r], r,
                         "paged sampled mixed-exec");
    EXPECT_FALSE(engine.result(ids[r]).tokens.empty());
  }
}

TEST(PagedEquivalence, StaggeredAdmissionOnSmallPoolMatchesSolo) {
  const TransformerLM model = micro_model();
  const std::size_t total = 6;
  const auto prompts = mixed_prompts(model, total);
  const auto options = mixed_options(total);
  const auto ref = run_sessions(model, prompts, options);

  // A pool sized for barely two short sequences (far below max_batch *
  // max_seq parity) with requests trickling in mid-flight: admission,
  // growth and slot churn all contend for blocks.
  ServeOptions serve_opts;
  serve_opts.max_batch = 3;
  serve_opts.kv_block_rows = 8;
  serve_opts.kv_pool_blocks = 12;
  serve_opts.prefill_chunk_budget = 4;
  ServeEngine engine(model, serve_opts);
  std::vector<RequestId> ids;
  ids.push_back(engine.submit(prompts[0], options[0]));
  ids.push_back(engine.submit(prompts[1], options[1]));
  std::size_t next = 2;
  while (engine.queue_depth() > 0 || engine.active_requests() > 0 ||
         next < total) {
    engine.step();
    if (next < total) {
      ids.push_back(engine.submit(prompts[next], options[next]));
      ++next;
    }
  }
  for (std::size_t r = 0; r < total; ++r) {
    ASSERT_TRUE(engine.finished(ids[r]));
    expect_equal_results(engine.result(ids[r]), ref[r], r, "small pool");
  }
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 0u);
}

}  // namespace
}  // namespace ft2
