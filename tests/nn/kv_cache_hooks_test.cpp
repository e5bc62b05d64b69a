// KV cache bookkeeping and hook-chain semantics.
#include <gtest/gtest.h>

#include <map>

#include "core/ft2.hpp"
#include "nn/hooks.hpp"
#include "nn/kv_cache.hpp"
#include "numeric/f16.hpp"

namespace ft2 {
namespace {

TEST(KvCache, StoreAndRetrieve) {
  KvCache cache(2, 8, 4);
  EXPECT_EQ(cache.length(), 0u);
  EXPECT_EQ(cache.max_seq(), 8u);

  const std::vector<float> k0 = {1, 2, 3, 4};
  const std::vector<float> v0 = {5, 6, 7, 8};
  cache.store(0, 0, k0, v0);
  cache.store(1, 0, v0, k0);
  cache.advance();
  EXPECT_EQ(cache.length(), 1u);

  const auto key = cache.key(0, 0);
  EXPECT_EQ(key[0], 1.0f);
  EXPECT_EQ(key[3], 4.0f);
  const auto val = cache.value(1, 0);
  EXPECT_EQ(val[0], 1.0f);  // block 1 stored swapped
}

TEST(KvCache, ResetClearsLength) {
  KvCache cache(1, 4, 2);
  const std::vector<float> kv = {1, 2};
  cache.store(0, 0, kv, kv);
  cache.advance();
  cache.reset();
  EXPECT_EQ(cache.length(), 0u);
  // Re-use after reset works.
  cache.store(0, 0, kv, kv);
  cache.advance();
  EXPECT_EQ(cache.length(), 1u);
}

/// The K_PROJ rows of every dispatch, per block, as hooks see them.
class KeyRecorder : public OutputHook {
 public:
  void on_output(const HookContext& ctx, std::span<float> values) override {
    if (ctx.site.kind != LayerKind::kKProj) return;
    std::vector<float>& rows = keys[ctx.site.block];
    rows.insert(rows.end(), values.begin(), values.end());
  }
  std::map<int, std::vector<float>> keys;
};

/// The forward engine owns the key layout: it stores each hooked key row
/// head-interleaved, and the cache copies rows as they are.
TEST(KvCache, EngineStoresKeysHeadInterleavedAndCopiesRowsVerbatim) {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;  // learned positions: stored keys are hooked
  c.activation = Activation::kRelu;
  c.norm = NormKind::kLayerNorm;
  c.position = PositionKind::kLearned;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 24;
  c.n_heads = 3;
  c.n_blocks = 2;
  c.d_ff = 32;
  c.max_seq = 16;
  Xoshiro256 rng(31);
  const TransformerLM model(c, init_weights(c, rng));
  KvCache cache = model.make_cache();
  Workspace ws(c);
  KeyRecorder recorder;
  HookChain hooks;
  const auto reg = hooks.add(recorder);
  const std::vector<int> tokens = {Vocab::kBos, 7, 3, 11, 5};
  std::vector<float> logits(c.vocab_size);
  model.forward_span(tokens, 0, cache, hooks, ExecConfig{}, true, ws, logits);

  const std::size_t n = tokens.size();
  for (std::size_t b = 0; b < c.n_blocks; ++b) {
    const std::vector<float>& hooked = recorder.keys[static_cast<int>(b)];
    ASSERT_EQ(hooked.size(), n * c.d_model);
    for (std::size_t p = 0; p < n; ++p) {
      std::vector<float> want(c.d_model);
      interleave_heads({hooked.data() + p * c.d_model, c.d_model}, c.n_heads,
                       c.head_dim(), want);
      const auto got = cache.key(b, p);
      for (std::size_t i = 0; i < c.d_model; ++i) {
        ASSERT_EQ(f32_bits(got[i]), f32_bits(want[i]))
            << "block " << b << " pos " << p << " index " << i;
      }
    }
  }
  const KvCache copy = cache.prefix_copy(n);
  KvCache fork = model.make_cache();
  fork.append_rows(copy, 3);
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_TRUE(copy.same_row(cache, p)) << "prefix_copy pos " << p;
    if (p < 3) EXPECT_TRUE(fork.same_row(cache, p)) << "append_rows pos " << p;
  }
}

class RecordingHook : public OutputHook {
 public:
  explicit RecordingHook(std::vector<std::string>* log, std::string name,
                         float delta = 0.0f)
      : log_(log), name_(std::move(name)), delta_(delta) {}

  void on_output(const HookContext&, std::span<float> values) override {
    log_->push_back(name_);
    for (float& f : values) f += delta_;
  }
  void on_generation_begin() override { log_->push_back(name_ + ":begin"); }
  void on_generation_end() override { log_->push_back(name_ + ":end"); }

 private:
  std::vector<std::string>* log_;
  std::string name_;
  float delta_;
};

TEST(HookChain, DispatchOrderIsRegistrationOrder) {
  std::vector<std::string> log;
  RecordingHook a(&log, "injector", 1.0f);
  RecordingHook b(&log, "protector", 0.0f);
  HookChain chain;
  const auto reg_a = chain.add(a);
  const auto reg_b = chain.add(b);
  EXPECT_EQ(chain.size(), 2u);

  std::vector<float> values = {0.0f};
  chain.begin();
  chain.dispatch(HookContext{{0, LayerKind::kVProj}, 0, true}, values);
  chain.end();

  const std::vector<std::string> expected = {
      "injector:begin", "protector:begin", "injector", "protector",
      "injector:end",   "protector:end"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(values[0], 1.0f);  // mutation from the first hook visible
}

TEST(HookChain, LaterHookSeesEarlierMutation) {
  std::vector<std::string> log;
  RecordingHook inject(&log, "i", 100.0f);
  // A "protector" that clamps what it sees.
  class ClampHook : public OutputHook {
   public:
    void on_output(const HookContext&, std::span<float> values) override {
      for (float& f : values) f = std::min(f, 1.0f);
    }
  };
  ClampHook clamp;
  HookChain chain;
  const auto reg_i = chain.add(inject);
  const auto reg_c = chain.add(clamp);
  std::vector<float> values = {0.5f};
  chain.dispatch(HookContext{{0, LayerKind::kFc2}, 3, false}, values);
  EXPECT_EQ(values[0], 1.0f);  // 0.5 + 100 then clamped
}

TEST(HookChain, EmptyChainIsNoop) {
  HookChain chain;
  EXPECT_TRUE(chain.empty());
  std::vector<float> values = {2.0f};
  chain.dispatch(HookContext{{0, LayerKind::kQProj}, 0, false}, values);
  chain.begin();
  chain.end();
  EXPECT_EQ(values[0], 2.0f);
}

TEST(HookChain, ClearRemovesHooks) {
  std::vector<std::string> log;
  RecordingHook a(&log, "a");
  HookChain chain;
  auto reg = chain.add(a);
  chain.clear();
  EXPECT_FALSE(reg.active());
  std::vector<float> values = {1.0f};
  chain.dispatch(HookContext{{0, LayerKind::kQProj}, 0, false}, values);
  EXPECT_TRUE(log.empty());
}

TEST(HookRegistration, ScopeEndsRegistration) {
  std::vector<std::string> log;
  RecordingHook a(&log, "a");
  HookChain chain;
  {
    const auto reg = chain.add(a);
    EXPECT_EQ(chain.size(), 1u);
    EXPECT_TRUE(reg.active());
  }
  EXPECT_TRUE(chain.empty());
  std::vector<float> values = {1.0f};
  chain.dispatch(HookContext{{0, LayerKind::kQProj}, 0, false}, values);
  EXPECT_TRUE(log.empty());
}

TEST(HookRegistration, SafeWhenChainDiesFirst) {
  std::vector<std::string> log;
  RecordingHook a(&log, "a");
  HookRegistration reg;
  {
    HookChain chain;
    reg = chain.add(a);
    EXPECT_TRUE(reg.active());
  }
  EXPECT_FALSE(reg.active());
  reg.release();  // must be a harmless no-op after the chain is gone
}

TEST(HookRegistration, MoveTransfersOwnership) {
  std::vector<std::string> log;
  RecordingHook a(&log, "a");
  HookChain chain;
  auto reg = chain.add(a);
  HookRegistration moved = std::move(reg);
  EXPECT_FALSE(reg.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.active());
  moved.release();
  EXPECT_TRUE(chain.empty());
}

TEST(HookRegistration, ReleaseRemovesOnlyItsHook) {
  std::vector<std::string> log;
  RecordingHook a(&log, "a");
  RecordingHook b(&log, "b");
  HookChain chain;
  auto reg_a = chain.add(a);
  const auto reg_b = chain.add(b);
  reg_a.release();
  std::vector<float> values = {0.0f};
  chain.dispatch(HookContext{{0, LayerKind::kQProj}, 0, false}, values);
  EXPECT_EQ(log, std::vector<std::string>{"b"});
}

TEST(HookContext, SpanRowView) {
  const HookContext ctx{{0, LayerKind::kQProj}, 4, true, 3, 2};
  std::vector<float> values = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ctx.n_positions, 3u);
  const auto r1 = ctx.row(std::span<float>(values), 1);
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1[0], 2.0f);
  EXPECT_EQ(ctx.position_at(1), 5u);
  EXPECT_TRUE(ctx.contains_position(4));
  EXPECT_TRUE(ctx.contains_position(6));
  EXPECT_FALSE(ctx.contains_position(3));
  EXPECT_FALSE(ctx.contains_position(7));

  // Single-position dispatch built with the legacy 3-field initializer:
  // row 0 must be the whole span (stride defaults to the span size).
  const HookContext single{{0, LayerKind::kQProj}, 2, false};
  EXPECT_EQ(single.n_positions, 1u);
  EXPECT_EQ(single.row(std::span<float>(values), 0).size(), values.size());
  EXPECT_TRUE(single.contains_position(2));
  EXPECT_FALSE(single.contains_position(3));
}

}  // namespace
}  // namespace ft2
