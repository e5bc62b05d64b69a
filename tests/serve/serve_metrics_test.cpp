// serve.* / protect.* metrics against the engine's own accounting:
//   - registry counters equal ServeCounters bit for bit after a run;
//   - protect.* per-kind counters equal the sum of the per-request
//     ProtectionHook stats (the bit-exactness acceptance criterion);
//   - ServeCounters accumulate across run() invocations and
//     reset_counters() starts a fresh window without touching the
//     monotonic registry metrics;
//   - tracer wired through ServeOptions records prefill / decode spans.
#include <gtest/gtest.h>

#include <vector>

#include "core/ft2.hpp"
#include "serve/serve_engine.hpp"

namespace ft2 {
namespace {

TransformerLM micro_model() {
  ModelConfig c;
  c.arch = ArchFamily::kLlama;
  c.activation = Activation::kSilu;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 24;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 32;
  c.max_seq = 96;
  Xoshiro256 rng(41);
  return TransformerLM(c, init_weights(c, rng));
}

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

std::vector<GenerateOptions> mixed_options(std::size_t n) {
  const std::size_t lengths[] = {3, 10, 6, 1, 8, 5, 12, 2};
  std::vector<GenerateOptions> all(n);
  for (std::size_t r = 0; r < n; ++r) {
    all[r].max_new_tokens = lengths[r % std::size(lengths)];
    all[r].eos_token = -1;
  }
  return all;
}

TEST(ServeMetrics, RegistryCountersEqualServeCounters) {
  const TransformerLM model = micro_model();
  const std::size_t batch = 4;
  const auto prompts = mixed_prompts(model, batch);
  const auto options = mixed_options(batch);

  MetricsRegistry registry;
  ServeOptions serve_opts;
  serve_opts.max_batch = 2;
  serve_opts.obs.metrics = &registry;
  ServeEngine engine(model, serve_opts);
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < batch; ++r) {
    ids.push_back(engine.submit(prompts[r], options[r]));
  }
  engine.run();

  const ServeCounters& c = engine.counters();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("serve.requests.submitted"), c.submitted);
  EXPECT_EQ(snap.counter_value("serve.requests.completed"), c.completed);
  EXPECT_EQ(snap.counter_value("serve.tokens.generated"), c.generated_tokens);
  EXPECT_EQ(snap.counter_value("serve.prefill.positions"),
            c.prefill_positions);
  EXPECT_EQ(snap.counter_value("serve.decode.steps"), c.decode_steps);
  EXPECT_EQ(snap.counter_value("serve.decode.rows"), c.decode_rows);

  // One queue-wait and one prefill sample per admitted request, one
  // request-decode sample per completion.
  const auto* queue_wait = snap.find_histogram("serve.queue.wait_ms");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->count, c.submitted);
  EXPECT_EQ(queue_wait->nan_count, 0u);
  const auto* prefill = snap.find_histogram("serve.prefill.latency_ms");
  ASSERT_NE(prefill, nullptr);
  EXPECT_EQ(prefill->count, c.submitted);
  const auto* request_decode = snap.find_histogram("serve.request.decode_ms");
  ASSERT_NE(request_decode, nullptr);
  EXPECT_EQ(request_decode->count, c.completed);
  // One decode-step latency sample per non-empty decode step; sub-batches
  // (counted by decode_steps) can only make the counter larger.
  const auto* decode_step = snap.find_histogram("serve.decode.step_ms");
  ASSERT_NE(decode_step, nullptr);
  EXPECT_GT(decode_step->count, 0u);
  EXPECT_LE(decode_step->count, c.decode_steps);

  const auto* occupancy = snap.find_gauge("serve.batch.occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_GE(occupancy->value, 1.0);
  EXPECT_LE(occupancy->value, static_cast<double>(serve_opts.max_batch));
}

TEST(ServeMetrics, ProtectCountersPinnedToProtectionStats) {
  // The acceptance criterion: protect.* counters in the registry must equal
  // the ProtectionStats the hooks report — the registry is a view over the
  // same events, not a second accounting that could drift.
  const TransformerLM model = micro_model();
  const std::size_t batch = 3;
  const auto prompts = mixed_prompts(model, batch);
  const auto options = mixed_options(batch);
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());

  MetricsRegistry registry;
  ServeOptions serve_opts;
  serve_opts.obs.metrics = &registry;
  ServeEngine engine(model, serve_opts);
  std::vector<ProtectionHook> hooks;
  hooks.reserve(batch);  // chains hold raw hook pointers
  std::vector<HookRegistration> regs;
  for (std::size_t r = 0; r < batch; ++r) {
    hooks.emplace_back(model.config(), spec, BoundStore{}, &registry);
    const RequestId id = engine.submit(prompts[r], options[r]);
    regs.push_back(engine.hooks(id).add(hooks.back()));
  }
  engine.run();

  const MetricsSnapshot snap = registry.snapshot();
  std::size_t total_checked = 0;
  for (LayerKind kind : spec.covered) {
    ProtectionStats per_kind;
    for (const ProtectionHook& hook : hooks) per_kind.merge(hook.stats(kind));
    const std::string name(layer_kind_name(kind));
    EXPECT_EQ(snap.counter_value("protect.checked." + name),
              per_kind.values_checked)
        << name;
    EXPECT_EQ(snap.counter_value("protect.nan." + name),
              per_kind.nan_corrected)
        << name;
    EXPECT_EQ(snap.counter_value("protect.oob." + name),
              per_kind.oob_corrected)
        << name;
    total_checked += per_kind.values_checked;
    // Clip-magnitude histogram: one sample per out-of-bound event.
    const auto* magnitude =
        snap.find_histogram("protect.clip_magnitude." + name);
    ASSERT_NE(magnitude, nullptr) << name;
    EXPECT_EQ(magnitude->count, per_kind.oob_corrected) << name;
  }
  EXPECT_GT(total_checked, 0u);

  // The per-kind façade must sum to the total stats() exactly.
  for (const ProtectionHook& hook : hooks) {
    ProtectionStats summed;
    for (std::size_t k = 0; k < kLayerKindCount; ++k) {
      summed.merge(hook.stats(static_cast<LayerKind>(k)));
    }
    const ProtectionStats total = hook.stats();
    EXPECT_EQ(summed.values_checked, total.values_checked);
    EXPECT_EQ(summed.nan_corrected, total.nan_corrected);
    EXPECT_EQ(summed.oob_corrected, total.oob_corrected);
  }
}

TEST(ServeMetrics, CountersAccumulateAcrossRunsAndResetExplicitly) {
  const TransformerLM model = micro_model();
  const auto prompts = mixed_prompts(model, 2);
  const auto options = mixed_options(2);

  MetricsRegistry registry;
  ServeOptions serve_opts;
  serve_opts.obs.metrics = &registry;
  ServeEngine engine(model, serve_opts);

  engine.submit(prompts[0], options[0]);
  engine.run();
  const ServeCounters first = engine.counters();
  EXPECT_EQ(first.submitted, 1u);
  EXPECT_EQ(first.completed, 1u);

  // Second run on the same engine: counters continue the same tallies.
  engine.submit(prompts[1], options[1]);
  engine.run();
  const ServeCounters second = engine.counters();
  EXPECT_EQ(second.submitted, 2u);
  EXPECT_EQ(second.completed, 2u);
  EXPECT_GE(second.decode_steps, first.decode_steps);
  EXPECT_EQ(second.generated_tokens,
            first.generated_tokens + options[1].max_new_tokens);

  // reset_counters() opens a fresh window...
  engine.reset_counters();
  const ServeCounters& after = engine.counters();
  EXPECT_EQ(after.submitted, 0u);
  EXPECT_EQ(after.completed, 0u);
  EXPECT_EQ(after.decode_steps, 0u);
  EXPECT_EQ(after.generated_tokens, 0u);
  EXPECT_EQ(after.max_active, 0u);

  // ...while the registry metrics stay monotonic (both runs still counted).
  EXPECT_EQ(registry.snapshot().counter_value("serve.requests.completed"),
            2u);
}

TEST(ServeMetrics, TracerThroughServeOptionsRecordsSpans) {
  const TransformerLM model = micro_model();
  const auto prompts = mixed_prompts(model, 2);
  const auto options = mixed_options(2);

  Tracer tracer(64, /*enabled=*/true);
  MetricsRegistry registry;
  ServeOptions serve_opts;
  serve_opts.obs.metrics = &registry;
  serve_opts.obs.tracer = &tracer;
  ServeEngine engine(model, serve_opts);
  for (std::size_t r = 0; r < 2; ++r) {
    engine.submit(prompts[r], options[r]);
  }
  engine.run();

  std::size_t prefill_spans = 0;
  std::size_t decode_spans = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.name == "serve.prefill") ++prefill_spans;
    if (event.name == "serve.decode_step") ++decode_spans;
  }
  EXPECT_EQ(prefill_spans, 2u);
  EXPECT_GT(decode_spans, 0u);
}

TEST(ServeMetrics, NullRegistryRunsWithInertHandles) {
  // An engine given no registry runs on inert handles: same tokens and
  // engine counters as one that publishes, and no registration leaks into
  // an unrelated registry.
  const TransformerLM model = micro_model();
  const auto prompts = mixed_prompts(model, 1);
  const auto options = mixed_options(1);

  MetricsRegistry unrelated;
  ServeOptions serve_opts;
  serve_opts.obs.metrics = &unrelated;
  ServeEngine published(model, serve_opts);
  const RequestId published_id = published.submit(prompts[0], options[0]);
  published.run();
  const std::size_t registered = unrelated.snapshot().counters.size();
  {
    ServeEngine engine(model);
    const RequestId id = engine.submit(prompts[0], options[0]);
    engine.run();
    EXPECT_EQ(engine.result(id).tokens, published.result(published_id).tokens);
    EXPECT_EQ(engine.counters().decode_steps,
              published.counters().decode_steps);
  }
  EXPECT_EQ(unrelated.snapshot().counters.size(), registered);
  // Protection hook constructed with a null registry keeps inert handles.
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
  ProtectionHook hook(model.config(), spec, BoundStore{}, nullptr);
  InferenceSession session(model);
  const auto reg = session.hooks().add(hook);
  session.generate(prompts[0], options[0]);
  EXPECT_GT(hook.stats().values_checked, 0u);
  // The unrelated registry only ever saw the serve.* registrations above.
  for (const auto& c : unrelated.snapshot().counters) {
    EXPECT_EQ(c.name.rfind("serve.", 0), 0u) << c.name;
  }
}

}  // namespace
}  // namespace ft2
