// Scheduler policy and the engine behaviors built on it:
//   - admission order is priority desc, deadline asc, submission seq asc;
//   - eviction order mirrors admission and respects the limit entry;
//   - max_queue_depth backpressure rejects with a typed ft2::Error and
//     counts serve.rejected;
//   - cancellation works queued, mid-prefill and mid-decode;
//   - swap preemption under pool pressure is bit-exact including hook
//     traffic and protection statistics, also when a request yields its
//     own slot, and runs every position exactly once;
//   - copy-on-write prefix sharing reproduces solo tokens, survives
//     registry eviction under pool pressure, and resident_cache_bytes
//     counts shared blocks once.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "serve_test_util.hpp"

namespace ft2 {
namespace {

using serve_test::SiteRecorder;
using serve_test::expect_equal_results;
using serve_test::expect_equal_tokens;
using serve_test::expect_same_traffic;
using serve_test::long_prompt;
using serve_test::micro_model;
using serve_test::mixed_options;
using serve_test::mixed_prompts;
using serve_test::run_sessions;

SchedEntry entry(RequestId id, int priority, double deadline_ms,
                 std::uint64_t seq) {
  return SchedEntry{id, priority, deadline_ms, seq};
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Scheduler, AdmitPrefersPriorityThenDeadlineThenSeq) {
  const SchedEntry low = entry(1, 0, kInf, 1);
  const SchedEntry high = entry(2, 5, kInf, 2);
  const SchedEntry tight = entry(3, 5, 10.0, 3);
  const SchedEntry tight_later = entry(4, 5, 10.0, 4);

  EXPECT_TRUE(Scheduler::admit_before(high, low));
  EXPECT_FALSE(Scheduler::admit_before(low, high));
  EXPECT_TRUE(Scheduler::admit_before(tight, high));   // earlier deadline
  EXPECT_TRUE(Scheduler::admit_before(tight, tight_later));  // FIFO tie-break
  EXPECT_FALSE(Scheduler::admit_before(tight, tight));       // strict order
}

TEST(Scheduler, PopDrainsInAdmissionOrder) {
  Scheduler sched;
  sched.enqueue(entry(1, 0, kInf, 1));
  sched.enqueue(entry(2, 1, kInf, 2));
  sched.enqueue(entry(3, 1, 25.0, 3));
  sched.enqueue(entry(4, 9, kInf, 4));
  EXPECT_EQ(sched.depth(), 4u);
  ASSERT_NE(sched.peek(), nullptr);
  EXPECT_EQ(sched.peek()->id, 4u);

  std::vector<RequestId> order;
  while (auto e = sched.pop()) order.push_back(e->id);
  EXPECT_EQ(order, (std::vector<RequestId>{4, 3, 2, 1}));
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.peek(), nullptr);
}

TEST(Scheduler, EraseRemovesQueuedEntry) {
  Scheduler sched;
  sched.enqueue(entry(1, 0, kInf, 1));
  sched.enqueue(entry(2, 0, kInf, 2));
  EXPECT_TRUE(sched.erase(1));
  EXPECT_FALSE(sched.erase(1));  // already gone
  EXPECT_EQ(sched.depth(), 1u);
  EXPECT_EQ(sched.pop()->id, 2u);
}

TEST(Scheduler, EvictionMirrorsAdmissionAndRespectsLimit) {
  const SchedEntry low = entry(1, 0, kInf, 1);
  const SchedEntry low_young = entry(2, 0, kInf, 5);
  const SchedEntry high = entry(3, 8, kInf, 2);

  // Lower priority evicts first; equal priority evicts the youngest.
  EXPECT_TRUE(Scheduler::evict_before(low, high));
  EXPECT_TRUE(Scheduler::evict_before(low_young, low));

  const std::array<SchedEntry, 3> holders = {low, low_young, high};
  const auto victim = Scheduler::pick_victim(holders);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 2u);  // the youngest low-priority holder

  // A limit excludes candidates the limit would not outrank: nothing at or
  // above `low`'s order may be evicted on low's behalf.
  const auto limited = Scheduler::pick_victim(holders, &low);
  ASSERT_TRUE(limited.has_value());
  EXPECT_EQ(limited->id, 2u);
  const std::array<SchedEntry, 1> only_high = {high};
  EXPECT_FALSE(Scheduler::pick_victim(only_high, &low).has_value());
  // An entry never qualifies as its own victim under its own limit.
  const std::array<SchedEntry, 1> self = {low};
  EXPECT_FALSE(Scheduler::pick_victim(self, &low).has_value());
}

TEST(ServeScheduler, MaxQueueDepthRejectsWithTypedError) {
  const TransformerLM model = micro_model();
  const auto prompts = mixed_prompts(model, 4);
  const auto options = mixed_options(4);

  MetricsRegistry registry;
  ServeOptions serve_opts;
  serve_opts.max_batch = 1;
  serve_opts.max_queue_depth = 2;
  serve_opts.obs.metrics = &registry;
  ServeEngine engine(model, serve_opts);

  const RequestId a = engine.submit(prompts[0], options[0]);
  const RequestId b = engine.submit(prompts[1], options[1]);
  EXPECT_EQ(engine.queue_depth(), 2u);
  EXPECT_THROW(engine.submit(prompts[2], options[2]), Error);
  EXPECT_EQ(engine.counters().rejected, 1u);
  EXPECT_EQ(engine.counters().submitted, 2u);
  EXPECT_EQ(registry.snapshot().counter_value("serve.rejected"), 1u);

  engine.run();
  EXPECT_TRUE(engine.finished(a));
  EXPECT_TRUE(engine.finished(b));

  // The window reopens once the queue drains.
  const RequestId c = engine.submit(prompts[3], options[3]);
  engine.run();
  EXPECT_TRUE(engine.finished(c));
  EXPECT_EQ(engine.counters().completed, 3u);
  EXPECT_EQ(engine.counters().rejected, 1u);
}

TEST(ServeScheduler, PriorityAndDeadlineGovernAdmissionOrder) {
  const TransformerLM model = micro_model();
  const std::size_t n = 4;
  const auto prompts = mixed_prompts(model, n);
  std::vector<GenerateOptions> options(n);
  for (auto& o : options) {
    o.max_new_tokens = 3;
    o.eos_token = -1;
  }
  const auto ref = run_sessions(model, prompts, options);

  // One slot, all four queued before the first step: the drain order is
  // pure policy. Submission order is the worst-cased inverse.
  ServeOptions serve_opts;
  serve_opts.max_batch = 1;
  ServeEngine engine(model, serve_opts);

  std::vector<RequestId> first_token_order;
  const auto record = [&first_token_order](RequestId id, std::size_t index,
                                           int) {
    if (index == 0) first_token_order.push_back(id);
  };
  ServeSubmitOptions fifo;            // priority 0, no deadline
  ServeSubmitOptions high;            // priority 1, no deadline
  high.priority = 1;
  ServeSubmitOptions high_deadline;   // priority 1, 10 ms TTFT deadline
  high_deadline.priority = 1;
  high_deadline.deadline_ms = 10.0;
  ServeSubmitOptions interactive;     // priority 5
  interactive.priority = 5;
  fifo.on_token = high.on_token = high_deadline.on_token =
      interactive.on_token = record;

  std::vector<RequestId> ids;
  ids.push_back(engine.submit(prompts[0], options[0], fifo));
  ids.push_back(engine.submit(prompts[1], options[1], high));
  ids.push_back(engine.submit(prompts[2], options[2], high_deadline));
  ids.push_back(engine.submit(prompts[3], options[3], interactive));
  engine.run();

  const std::vector<RequestId> expected = {ids[3], ids[2], ids[1], ids[0]};
  EXPECT_EQ(first_token_order, expected);
  for (std::size_t r = 0; r < n; ++r) {
    expect_equal_results(engine.result(ids[r]), ref[r], r, "priority order");
  }
}

TEST(ServeScheduler, CancelQueuedMidPrefillAndMidDecode) {
  const TransformerLM model = micro_model();
  GenerateOptions gen;
  gen.max_new_tokens = 6;
  gen.eos_token = -1;
  gen.prefill_chunk = 2;  // with budget 2: one 2-position chunk per step

  ServeOptions serve_opts;
  serve_opts.max_batch = 1;
  serve_opts.prefill_chunk_budget = 2;
  ServeEngine engine(model, serve_opts);

  // Mid-prefill: one step covers 2 of 8 prompt positions, then cancel.
  const std::vector<int> prompt_a = long_prompt(model, 8, 11);
  const RequestId a = engine.submit(prompt_a, gen);
  engine.step();
  EXPECT_EQ(engine.active_requests(), 1u);
  EXPECT_TRUE(engine.cancel(a));
  EXPECT_TRUE(engine.finished(a));
  EXPECT_TRUE(engine.result(a).cancelled);
  EXPECT_TRUE(engine.result(a).tokens.empty());
  EXPECT_EQ(engine.active_requests(), 0u);

  // Mid-decode: cancel after the first streamed token arrives.
  std::size_t b_tokens = 0;
  ServeSubmitOptions sub;
  sub.on_token = [&b_tokens](RequestId, std::size_t, int) { ++b_tokens; };
  const RequestId b = engine.submit(long_prompt(model, 6, 12), gen, sub);
  while (b_tokens == 0) engine.step();
  EXPECT_TRUE(engine.cancel(b));
  EXPECT_TRUE(engine.result(b).cancelled);
  EXPECT_GE(engine.result(b).tokens.size(), 1u);
  EXPECT_LT(engine.result(b).tokens.size(), gen.max_new_tokens);

  // Queued: cancelled before any step ever sees it.
  const RequestId c = engine.submit(long_prompt(model, 5, 13), gen);
  EXPECT_EQ(engine.queue_depth(), 1u);
  EXPECT_TRUE(engine.cancel(c));
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_TRUE(engine.result(c).cancelled);
  EXPECT_TRUE(engine.result(c).tokens.empty());
  EXPECT_EQ(engine.result(c).positions_run, 0u);

  // Cancelling a finished request is a no-op.
  EXPECT_FALSE(engine.cancel(b));
  EXPECT_EQ(engine.counters().cancelled, 3u);
  EXPECT_EQ(engine.counters().completed, 0u);
  EXPECT_EQ(engine.resident_cache_bytes(), 0u);
  ASSERT_NE(engine.kv_pool(), nullptr);
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 0u);

  // The engine stays healthy for ordinary traffic afterwards.
  const std::vector<int> prompt_d = long_prompt(model, 7, 14);
  const RequestId d = engine.submit(prompt_d, gen);
  engine.run();
  InferenceSession session(model);
  expect_equal_results(engine.result(d), session.generate(prompt_d, gen), 0,
                       "post-cancel");
}

TEST(ServeScheduler, SwapPreemptionIsBitExactWithHooks) {
  const TransformerLM model = micro_model();
  // Two sequences that each fit the pool alone but not together: 30+30 and
  // 26+28 rows against a 12-block x 8-row pool forces a mid-decode
  // preemption of the younger request.
  const std::vector<std::vector<int>> prompts = {long_prompt(model, 30, 1),
                                                 long_prompt(model, 26, 2)};
  std::vector<GenerateOptions> options(2);
  options[0].max_new_tokens = 30;
  options[1].max_new_tokens = 28;
  for (auto& o : options) o.eos_token = -1;

  std::vector<SiteRecorder> solo_rec(2);
  std::vector<GenerateResult> ref;
  for (std::size_t r = 0; r < 2; ++r) {
    InferenceSession session(model);
    const auto reg = session.hooks().add(solo_rec[r]);
    ref.push_back(session.generate(prompts[r], options[r]));
  }

  ServeOptions serve_opts;
  serve_opts.max_batch = 2;
  serve_opts.kv_block_rows = 8;
  serve_opts.kv_pool_blocks = 12;  // exactly one max_seq sequence
  ServeEngine engine(model, serve_opts);

  std::vector<SiteRecorder> serve_rec(2);
  std::vector<HookRegistration> regs;
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < 2; ++r) {
    ids.push_back(engine.submit(prompts[r], options[r]));
    regs.push_back(engine.hooks(ids[r]).add(serve_rec[r]));
  }
  engine.run();

  EXPECT_GE(engine.counters().preemptions, 1u);
  for (std::size_t r = 0; r < 2; ++r) {
    expect_equal_results(engine.result(ids[r]), ref[r], r, "swap preempt");
    // Swap restores K/V rows verbatim: hooks never see the round trip.
    expect_same_traffic(solo_rec[r], serve_rec[r], r, "swap preempt");
  }
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 0u);
}

TEST(ServeEngine, HookedSelfPreemptionIsSwapped) {
  const TransformerLM model = micro_model();
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
  // Two hooked ft2 requests that each fit the 12-block x 8-row pool alone
  // but not together. The older one's decode evicts the younger, whose
  // resume then waits in the queue until the older one finishes. The
  // round trip is a swap, so hooks and protection never observe it.
  const std::vector<std::vector<int>> prompts = {long_prompt(model, 30, 11),
                                                 long_prompt(model, 26, 12)};
  std::vector<GenerateOptions> options(2);
  options[0].max_new_tokens = 30;
  options[1].max_new_tokens = 28;
  for (auto& o : options) o.eos_token = -1;

  struct Hooked {
    ProtectionHook protection;
    SiteRecorder recorder;
    std::vector<HookRegistration> regs;
    Hooked(const TransformerLM& model, const SchemeSpec& spec, HookChain& c)
        : protection(model.config(), spec, BoundStore{}) {
      regs.push_back(c.add(protection));
      regs.push_back(c.add(recorder));
    }
  };

  std::vector<std::unique_ptr<Hooked>> solo;
  std::vector<GenerateResult> ref;
  for (std::size_t r = 0; r < 2; ++r) {
    InferenceSession session(model);
    solo.push_back(std::make_unique<Hooked>(model, spec, session.hooks()));
    ref.push_back(session.generate(prompts[r], options[r]));
  }

  ServeOptions serve_opts;
  serve_opts.max_batch = 2;
  serve_opts.kv_block_rows = 8;
  serve_opts.kv_pool_blocks = 12;
  ServeEngine engine(model, serve_opts);
  std::vector<std::unique_ptr<Hooked>> served;
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < 2; ++r) {
    ids.push_back(engine.submit(prompts[r], options[r]));
    served.push_back(
        std::make_unique<Hooked>(model, spec, engine.hooks(ids[r])));
  }
  engine.run();

  ASSERT_GE(engine.counters().preemptions, 1u);
  // One eviction: a resume that cannot fit waits in the queue without
  // being counted again.
  EXPECT_EQ(engine.counters().preemptions, 1u);
  EXPECT_EQ(engine.request_stats(ids[0]).preemptions, 0u);
  EXPECT_EQ(engine.request_stats(ids[1]).preemptions, 1u);
  for (std::size_t r = 0; r < 2; ++r) {
    expect_equal_results(engine.result(ids[r]), ref[r], r, "self-preempt");
    for (std::size_t k = 0; k < kLayerKindCount; ++k) {
      const auto kind = static_cast<LayerKind>(k);
      const ProtectionStats& got = served[r]->protection.stats(kind);
      const ProtectionStats& want = solo[r]->protection.stats(kind);
      EXPECT_EQ(got.values_checked, want.values_checked)
          << "request " << r << " " << layer_kind_name(kind);
      EXPECT_EQ(got.nan_corrected, want.nan_corrected)
          << "request " << r << " " << layer_kind_name(kind);
      EXPECT_EQ(got.oob_corrected, want.oob_corrected)
          << "request " << r << " " << layer_kind_name(kind);
    }
    EXPECT_EQ(served[r]->protection.first_detect_position(),
              solo[r]->protection.first_detect_position())
        << "request " << r;
    expect_same_traffic(solo[r]->recorder, served[r]->recorder, r,
                        "self-preempt");
  }
  // Swap resumes run no forwards: the engine ran exactly the solo
  // positions.
  std::size_t result_positions = 0;
  for (const RequestId id : ids) {
    result_positions += engine.result(id).positions_run;
  }
  EXPECT_EQ(engine.counters().prefill_positions +
                engine.counters().decode_rows,
            result_positions);
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 0u);
}

TEST(ServeScheduler, SharedPrefixMatchesSoloAndCountsRows) {
  const TransformerLM model = micro_model();
  // 10 common leading tokens; with 4-row blocks the donor (P=11) registers
  // exactly 2 full blocks = 8 rows, all inside the common region.
  const std::vector<int> common = long_prompt(model, 10, 9);
  const std::vector<int> prompt_a = long_prompt(model, 11, 21, common);
  const std::vector<int> prompt_b = long_prompt(model, 16, 22, common);
  const std::vector<int> prompt_c = long_prompt(model, 13, 23, common);
  GenerateOptions gen;
  gen.max_new_tokens = 5;
  gen.eos_token = -1;

  std::vector<GenerateResult> ref;
  for (const auto* p : {&prompt_a, &prompt_b, &prompt_c}) {
    InferenceSession session(model);
    ref.push_back(session.generate(*p, gen));
  }

  ServeOptions serve_opts;
  serve_opts.max_batch = 1;
  serve_opts.kv_block_rows = 4;
  serve_opts.share_prefix = true;
  ServeEngine engine(model, serve_opts);

  // The donor prefills and registers; the sharers adopt its blocks.
  const RequestId a = engine.submit(prompt_a, gen);
  engine.run();
  const RequestId b = engine.submit(prompt_b, gen);
  const RequestId c = engine.submit(prompt_c, gen);
  engine.run();

  expect_equal_results(engine.result(a), ref[0], 0, "prefix donor");
  expect_equal_tokens(engine.result(b), ref[1], 1, "prefix sharer");
  expect_equal_tokens(engine.result(c), ref[2], 2, "prefix sharer");
  EXPECT_EQ(engine.request_stats(a).shared_prefix_rows, 0u);
  EXPECT_EQ(engine.request_stats(b).shared_prefix_rows, 8u);
  EXPECT_EQ(engine.request_stats(c).shared_prefix_rows, 8u);
  EXPECT_EQ(engine.counters().shared_prefix_rows, 16u);
  // Adopted positions are skipped, not run.
  EXPECT_EQ(engine.result(b).positions_run + 8, ref[1].positions_run);
}

TEST(ServeScheduler, ResidentBytesCountSharedBlocksOnce) {
  const TransformerLM model = micro_model();
  const std::vector<int> prompt = long_prompt(model, 13, 5);
  GenerateOptions gen;
  gen.max_new_tokens = 4;
  gen.eos_token = -1;

  ServeOptions serve_opts;
  serve_opts.max_batch = 2;
  serve_opts.kv_block_rows = 4;
  serve_opts.share_prefix = true;
  ServeEngine engine(model, serve_opts);
  ASSERT_NE(engine.kv_pool(), nullptr);
  const std::size_t bb = engine.kv_pool()->block_bytes();

  // Donor run registers a 3-block (12-row) prefix the engine keeps alive.
  const RequestId a = engine.submit(prompt, gen);
  engine.run();
  EXPECT_EQ(engine.resident_cache_bytes(), 0u);  // a retired
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 3u);

  // Two sharers admitted in one step: 3 shared blocks + one private tail
  // block each = 5 distinct blocks, not the naive 2 x 4.
  const RequestId b = engine.submit(prompt, gen);
  const RequestId c = engine.submit(prompt, gen);
  engine.step();
  EXPECT_EQ(engine.active_requests(), 2u);
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 5u);
  EXPECT_EQ(engine.resident_cache_bytes(), 5u * bb);
  EXPECT_LT(engine.resident_cache_bytes(), 2u * 4u * bb);

  engine.run();
  EXPECT_EQ(engine.resident_cache_bytes(), 0u);
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 3u);  // registry entry only
  InferenceSession session(model);
  const GenerateResult ref = session.generate(prompt, gen);
  expect_equal_tokens(engine.result(b), ref, 1, "resident sharer");
  expect_equal_tokens(engine.result(c), ref, 2, "resident sharer");
}

TEST(ServeScheduler, SharerSurvivesRegistryEviction) {
  const TransformerLM model = micro_model();
  const std::vector<int> shared_prompt = long_prompt(model, 13, 5);
  // Long enough that d cannot finish beside b in the smallest pool, nor
  // beside the registered prefix once b is done.
  const std::vector<int> other_prompt = long_prompt(model, 84, 77);
  GenerateOptions gen;
  gen.max_new_tokens = 8;
  gen.eos_token = -1;

  InferenceSession shared_session(model);
  const GenerateResult shared_ref = shared_session.generate(shared_prompt, gen);
  InferenceSession other_session(model);
  const GenerateResult other_ref = other_session.generate(other_prompt, gen);

  ServeOptions serve_opts;
  serve_opts.max_batch = 2;
  serve_opts.kv_block_rows = 4;
  serve_opts.share_prefix = true;
  // One max_seq sequence: the registered 3-block prefix, b's 2 private
  // blocks and d's 23 (84 + 7 rows) do not fit together, and the prefix and
  // d do not either.
  serve_opts.kv_pool_blocks = 24;
  ServeEngine engine(model, serve_opts);

  const RequestId a = engine.submit(shared_prompt, gen);
  engine.run();

  // b adopts the registered prefix; d's prefill runs the pool dry and
  // swaps d out until b is done. Dropping the entry would free nothing
  // while b holds its blocks, so it stays until d's decode needs them.
  // b's own block references keep the shared rows alive and its stream
  // stays solo-exact.
  const RequestId b = engine.submit(shared_prompt, gen);
  const RequestId d = engine.submit(other_prompt, gen);
  while (!engine.finished(b)) engine.step();
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 3u);  // the entry, d queued
  engine.run();

  EXPECT_EQ(engine.request_stats(b).shared_prefix_rows, 12u);
  expect_equal_tokens(engine.result(a), shared_ref, 0, "registry evict");
  expect_equal_tokens(engine.result(b), shared_ref, 1, "registry evict");
  expect_equal_results(engine.result(d), other_ref, 2, "registry evict");
  // d was evicted once, in its prefill; it stayed queued until it could
  // go on, with no further preemption. Only d's own registered prefix is
  // left.
  EXPECT_EQ(engine.counters().preemptions, 1u);
  EXPECT_EQ(engine.request_stats(d).preemptions, 1u);
  EXPECT_EQ(engine.kv_pool()->used_blocks(), 20u);

  // A later identical prompt finds the shared entry gone but still runs
  // correctly, prefilling from scratch.
  const RequestId e = engine.submit(shared_prompt, gen);
  engine.run();
  EXPECT_EQ(engine.request_stats(e).shared_prefix_rows, 0u);
  expect_equal_results(engine.result(e), shared_ref, 3, "after eviction");
}

TEST(ServeScheduler, SwapPreemptionWithSharedPrefixesRunsEachPositionOnce) {
  const TransformerLM model = micro_model();
  // A donor and two sharers of a 24-token opening in a 12-block x 8-row
  // pool: 8 + 5 + 4 distinct blocks at full length do not fit, so swaps
  // evict sharers whose adopted rows then come back as private copies.
  const std::vector<int> common = long_prompt(model, 24, 31);
  const std::vector<std::vector<int>> prompts = {
      long_prompt(model, 30, 32, common), long_prompt(model, 28, 33, common),
      long_prompt(model, 26, 34, common)};
  GenerateOptions gen;
  gen.max_new_tokens = 30;
  gen.eos_token = -1;
  const auto ref = run_sessions(
      model, prompts, std::vector<GenerateOptions>(prompts.size(), gen));

  ServeOptions serve_opts;
  serve_opts.max_batch = 3;
  serve_opts.kv_block_rows = 8;
  serve_opts.kv_pool_blocks = 12;
  serve_opts.share_prefix = true;
  ServeEngine engine(model, serve_opts);
  std::vector<RequestId> ids;
  for (const auto& prompt : prompts) ids.push_back(engine.submit(prompt, gen));
  engine.run();

  EXPECT_GE(engine.counters().preemptions, 1u);
  EXPECT_GT(engine.counters().shared_prefix_rows, 0u);
  std::size_t result_positions = 0;
  for (std::size_t r = 0; r < ids.size(); ++r) {
    expect_equal_tokens(engine.result(ids[r]), ref[r], r, "swap + sharing");
    result_positions += engine.result(ids[r]).positions_run;
  }
  // Neither a swap resume nor an adopted prefix runs a forward, so every
  // position the engine ran belongs to exactly one request's result.
  EXPECT_EQ(engine.counters().prefill_positions +
                engine.counters().decode_rows,
            result_positions);
}

}  // namespace
}  // namespace ft2
