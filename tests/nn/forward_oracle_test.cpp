// Differential oracle for the transformer forward (src/nn/model.cpp).
//
// NaiveForward is written independently of the engine: scalar, one
// position at a time, with its own per-block K/V arrays. Linears run the
// scalar row chain (gemv_rows_scalar below) or, in chunked-accumulation
// mode, its own copy of the 8-lane chunked chain; every observable value is
// quantized with the scalar quantize_f16; hooks see single-position
// contexts. Only the primitive row ops (norms, softmax, activations, RoPE)
// are shared with the engine; tests/tensor/ops_test.cpp covers those.
//
// Every public entry point must match the oracle bit for bit: logits,
// stored K/V rows, per-site hook traffic and an FT2 hook's protection
// tallies. Entry points: forward_position, forward_span at chunk sizes 1, 3
// and the whole prompt, and forward_batch with up to 6 slots at mixed
// positions (the GEMM's four-row groups and leftover rows).
// The grid covers OPT, GPT-J, Llama and Qwen2 configs, fp16 and
// chunked_accum on and off, standalone caches (one block of max_seq rows:
// attention reads one run) and caches over a shared pool of 3-row blocks
// (attention then walks runs that end inside an 8-key group; head_dim 10
// leaves a k tail), and every kernel tier the host supports. The oracle
// reads the row-major weights the model exports; forward_batch runs the
// model's own tiles on the standalone leg and a PackedDecodeWeights copy
// passed in on the pooled leg.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/ft2.hpp"
#include "numeric/f16.hpp"
#include "tensor/dispatch.hpp"

namespace ft2 {
namespace {

enum class Family { kOpt, kGptj, kLlama, kQwen2 };

/// d_model 20 / d_ff 36 leave row-group and k-block tails on every tier.
TransformerLM oracle_model(Family f) {
  ModelConfig c;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 20;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 36;
  c.max_seq = 24;
  if (f == Family::kOpt || f == Family::kGptj) {
    c.arch = f == Family::kOpt ? ArchFamily::kOpt : ArchFamily::kGptj;
    c.activation = f == Family::kOpt ? Activation::kRelu : Activation::kGelu;
    c.position = f == Family::kOpt ? PositionKind::kLearned
                                   : PositionKind::kRotary;
    c.parallel_block = f == Family::kGptj;
  } else {
    c.arch = ArchFamily::kLlama;
    c.activation = Activation::kSilu;
    c.norm = NormKind::kRmsNorm;
    c.position = PositionKind::kRotary;
    c.linear_bias = false;
    c.qkv_bias = f == Family::kQwen2;
  }
  Xoshiro256 rng(23 + static_cast<std::uint64_t>(f));
  return TransformerLM(c, init_weights(c, rng));
}

/// A standalone cache, or one over `pool` when it is given.
KvCache make_cache(const TransformerLM& model, KvBlockPool* pool) {
  return pool != nullptr ? KvCache::paged(*pool, model.config().max_seq)
                         : model.make_cache();
}

/// The GEMM chain written out: y[o] = bias[o] + sum over ascending i of
/// w[o * ldw + i] * x[i] for o in [0, n), one mul-then-add chain per output
/// from bias[o] (0.0f when `bias` is null).
void gemv_rows_scalar(const float* x, const float* w, std::size_t ldw,
                      std::size_t n, std::size_t k, const float* bias,
                      float* y) {
  for (std::size_t o = 0; o < n; ++o) {
    const float* row = w + o * ldw;
    float acc = bias == nullptr ? 0.0f : bias[o];
    for (std::size_t i = 0; i < k; ++i) acc += row[i] * x[i];
    y[o] = acc;
  }
}

std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out;
  for (const float f : v) out.push_back(f32_bits(f));
  return out;
}

/// The naive reference forward (see file header).
class NaiveForward {
 public:
  NaiveForward(const TransformerLM& model, const ExecConfig& exec)
      : w_(model.export_weights()), c_(model.config()), exec_(exec),
        keys_(c_.n_blocks), values_(c_.n_blocks) {}

  /// Runs the next position and returns its logits.
  std::vector<float> step(int token, bool first, const HookChain& hooks) {
    const std::size_t pos = length_++;
    const auto emb = w_.tok_emb.row(static_cast<std::size_t>(token));
    std::vector<float> x(emb.begin(), emb.end());
    if (c_.position == PositionKind::kLearned) {
      for (std::size_t i = 0; i < x.size(); ++i) x[i] += w_.pos_emb.row(pos)[i];
    }
    quantize(x);
    for (std::size_t b = 0; b < c_.n_blocks; ++b) {
      const BlockWeights& blk = w_.blocks[b];
      const Site s{static_cast<int>(b), pos, first, &hooks};
      std::vector<float> h = norm(blk.norm1, x);
      const std::vector<float> o = attention(blk, b, s, h);
      if (c_.parallel_block) {
        const std::vector<float> f2 = mlp(blk, s, h);
        for (std::size_t i = 0; i < x.size(); ++i) x[i] = x[i] + o[i] + f2[i];
      } else {
        for (std::size_t i = 0; i < x.size(); ++i) x[i] += o[i];
        quantize(x);
        h = norm(blk.norm2, x);
        const std::vector<float> f2 = mlp(blk, s, h);
        for (std::size_t i = 0; i < x.size(); ++i) x[i] += f2[i];
      }
      quantize(x);
    }
    const std::vector<float> fh = norm(w_.final_norm, x);
    std::vector<float> logits(c_.vocab_size);
    gemv_rows_scalar(fh.data(), w_.lm_head.w.data(), c_.d_model,
                             c_.vocab_size, c_.d_model, nullptr,
                             logits.data());
    return logits;
  }

  std::span<const float> key(std::size_t b, std::size_t pos) const {
    return {keys_[b].data() + pos * c_.d_model, c_.d_model};
  }
  std::span<const float> value(std::size_t b, std::size_t pos) const {
    return {values_[b].data() + pos * c_.d_model, c_.d_model};
  }
  std::size_t length() const { return length_; }

 private:
  struct Site {
    int block;
    std::size_t pos;
    bool first;
    const HookChain* hooks;
  };

  void quantize(std::vector<float>& v) const {
    if (exec_.fp16) {
      for (float& f : v) f = quantize_f16(f);
    }
  }

  std::vector<float> norm(const NormWeights& nw,
                          const std::vector<float>& in) const {
    std::vector<float> out(in.size());
    if (c_.norm == NormKind::kLayerNorm) {
      layernorm_row(in, nw.gamma.span(), nw.beta.span(), c_.norm_eps, out);
    } else {
      rmsnorm_row(in, nw.gamma.span(), c_.norm_eps, out);
    }
    quantize(out);
    return out;
  }

  void observe(std::vector<float>& v, const Site& s, LayerKind kind) const {
    quantize(v);
    s.hooks->dispatch(HookContext{LayerSite{s.block, kind}, s.pos, s.first},
                      v);
  }

  std::vector<float> linear(const LinearWeights& lw,
                            const std::vector<float>& in, const Site& s,
                            LayerKind kind) const {
    const std::size_t n = lw.w.dim(0), k = lw.w.dim(1);
    const auto bias = lw.bias_span();
    std::vector<float> y(n);
    if (!exec_.chunked_accum) {
      gemv_rows_scalar(in.data(), lw.w.data(), k, n, k,
                       bias.empty() ? nullptr : bias.data(), y.data());
    } else {
      for (std::size_t o = 0; o < n; ++o) {
        const float* row = lw.w.data() + o * k;
        float lane[8] = {};
        std::size_t i = 0;
        for (; i + 8 <= k; i += 8) {
          for (std::size_t l = 0; l < 8; ++l) lane[l] += row[i + l] * in[i + l];
        }
        float acc = bias.empty() ? 0.0f : bias[o];
        for (; i < k; ++i) acc += row[i] * in[i];
        for (std::size_t l = 0; l < 4; ++l) lane[l] += lane[l + 4];
        lane[0] += lane[2];
        lane[1] += lane[3];
        y[o] = acc + lane[0] + lane[1];
      }
    }
    observe(y, s, kind);
    return y;
  }

  std::vector<float> attention(const BlockWeights& blk, std::size_t b,
                               const Site& s, const std::vector<float>& h) {
    std::vector<float> q = linear(blk.q, h, s, LayerKind::kQProj);
    std::vector<float> k = linear(blk.k, h, s, LayerKind::kKProj);
    const std::vector<float> v = linear(blk.v, h, s, LayerKind::kVProj);
    const std::size_t d = c_.d_model, hd = c_.head_dim();
    if (c_.position == PositionKind::kRotary) {
      rope_apply(q, c_.n_heads, hd, s.pos, c_.rope_theta);
      rope_apply(k, c_.n_heads, hd, s.pos, c_.rope_theta);
      quantize(q);
      quantize(k);
    }
    keys_[b].insert(keys_[b].end(), k.begin(), k.end());
    values_[b].insert(values_[b].end(), v.begin(), v.end());

    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    std::vector<float> out(d, 0.0f);
    for (std::size_t off = 0; off < d; off += hd) {
      std::vector<float> p(s.pos + 1);
      for (std::size_t j = 0; j <= s.pos; ++j) {
        float dot = 0.0f;
        for (std::size_t i = 0; i < hd; ++i) {
          dot += q[off + i] * keys_[b][j * d + off + i];
        }
        p[j] = dot * scale;
      }
      quantize(p);
      softmax(p);
      quantize(p);
      for (std::size_t j = 0; j <= s.pos; ++j) {
        if (p[j] == 0.0f) continue;
        for (std::size_t i = 0; i < hd; ++i) {
          out[off + i] += p[j] * values_[b][j * d + off + i];
        }
      }
    }
    quantize(out);
    return linear(blk.o, out, s, LayerKind::kOutProj);
  }

  std::vector<float> mlp(const BlockWeights& blk, const Site& s,
                         const std::vector<float>& h) const {
    if (c_.arch == ArchFamily::kLlama) {
      std::vector<float> act = linear(blk.fc1, h, s, LayerKind::kGateProj);
      const std::vector<float> up = linear(blk.up, h, s, LayerKind::kUpProj);
      silu(act);
      observe(act, s, LayerKind::kMlpAct);
      for (std::size_t i = 0; i < act.size(); ++i) act[i] *= up[i];
      quantize(act);
      return linear(blk.fc2, act, s, LayerKind::kDownProj);
    }
    std::vector<float> act = linear(blk.fc1, h, s, LayerKind::kFc1);
    if (c_.activation == Activation::kRelu) {
      relu(act);
    } else {
      gelu(act);
    }
    observe(act, s, LayerKind::kMlpAct);
    return linear(blk.fc2, act, s, LayerKind::kFc2);
  }

  const ModelWeights w_;
  const ModelConfig& c_;
  ExecConfig exec_;
  std::vector<std::vector<float>> keys_, values_;
  std::size_t length_ = 0;
};

/// Every row a chain observed, per site, as (position, phase, bits): one
/// multi-row dispatch then compares equal to the per-position dispatches.
class SiteTraffic : public OutputHook {
 public:
  struct Row {
    std::size_t position;
    bool first_token;
    std::vector<std::uint32_t> bits;
    bool operator==(const Row&) const = default;
  };
  void on_output(const HookContext& ctx, std::span<float> values) override {
    auto& rows = by_site[{ctx.site.block, static_cast<int>(ctx.site.kind)}];
    for (std::size_t r = 0; r < ctx.n_positions; ++r) {
      rows.push_back({ctx.position_at(r), ctx.first_token_phase,
                      bits(ctx.row(values, r))});
    }
  }
  std::map<std::pair<int, int>, std::vector<Row>> by_site;
};

/// Campaign-style injector ahead of protection: an outlier in a block-0
/// V-projection row (a critical layer) at position 2, a NaN at position 8.
class Poke : public OutputHook {
 public:
  void on_output(const HookContext& ctx, std::span<float> values) override {
    if (ctx.site.block != 0 || ctx.site.kind != LayerKind::kVProj) return;
    for (std::size_t r = 0; r < ctx.n_positions; ++r) {
      const std::size_t p = ctx.position_at(r);
      if (p == 2) ctx.row(values, r)[3] = 300.0f;
      if (p == 8) {
        ctx.row(values, r)[5] = std::numeric_limits<float>::quiet_NaN();
      }
    }
  }
};

/// One sequence's chain, inside a generation scope:
/// [injector] -> FT2 protection -> traffic recorder.
struct Probe {
  Probe(const ModelConfig& c, bool inject)
      : protect(c, scheme_spec(SchemeKind::kFt2, c)) {
    if (inject) regs.push_back(chain.add(poke));
    regs.push_back(chain.add(protect));
    regs.push_back(chain.add(traffic));
    scope = GenerationScope(chain);
  }
  Probe(const Probe&) = delete;  // the chain points into this object
  Probe& operator=(const Probe&) = delete;

  Poke poke;
  ProtectionHook protect;
  SiteTraffic traffic;
  HookChain chain;
  std::vector<HookRegistration> regs;
  GenerationScope scope;
};

/// One sequence: its prompt, decode tokens, and what a run produced.
struct Seq {
  std::vector<int> prompt, decode;
  std::vector<std::vector<std::uint32_t>> logits;  ///< after prefill, decodes
};

Seq make_seq(std::size_t prompt_len, int salt, std::size_t vocab) {
  Seq s;
  for (std::size_t i = 0; i < prompt_len + 3; ++i) {
    const int t = static_cast<int>((i * 7 + 3 + salt * 5) % vocab);
    (i < prompt_len ? s.prompt : s.decode).push_back(t);
  }
  return s;
}

void expect_same(const Seq& want, const Probe& want_p, const NaiveForward& ref,
                 const Seq& got, const Probe& got_p, const KvCache& cache,
                 const ModelConfig& c) {
  EXPECT_EQ(want.logits, got.logits) << "logits";
  ASSERT_FALSE(got_p.traffic.by_site.empty());
  EXPECT_TRUE(want_p.traffic.by_site == got_p.traffic.by_site)
      << "hook traffic differs";
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const auto& a = want_p.protect.stats(static_cast<LayerKind>(k));
    const auto& b = got_p.protect.stats(static_cast<LayerKind>(k));
    EXPECT_EQ(a.values_checked, b.values_checked) << "kind " << k;
    EXPECT_EQ(a.nan_corrected, b.nan_corrected) << "kind " << k;
    EXPECT_EQ(a.oob_corrected, b.oob_corrected) << "kind " << k;
  }
  EXPECT_EQ(want_p.protect.first_detect_position(),
            got_p.protect.first_detect_position());
  ASSERT_EQ(cache.length(), ref.length());
  for (std::size_t b = 0; b < c.n_blocks; ++b) {
    for (std::size_t p = 0; p < ref.length(); ++p) {
      // The engine stores keys head-interleaved; the oracle keeps them
      // head-major.
      std::vector<float> want_key(c.d_model);
      interleave_heads(ref.key(b, p), c.n_heads, c.head_dim(), want_key);
      EXPECT_EQ(bits(cache.key(b, p)), bits(want_key))
          << "K block " << b << " pos " << p;
      EXPECT_EQ(bits(cache.value(b, p)), bits(ref.value(b, p)))
          << "V block " << b << " pos " << p;
    }
  }
}

constexpr std::size_t kPositionPath = static_cast<std::size_t>(-1);

void expect_engine_matches_oracle(KernelTier tier) {
  const KernelTier saved = active_kernel_tier();
  set_kernel_tier(tier);
  ThreadPool pool(3);
  for (const Family fam :
       {Family::kOpt, Family::kGptj, Family::kLlama, Family::kQwen2}) {
    const TransformerLM model = oracle_model(fam);
    const ModelConfig& c = model.config();
    const PackedDecodeWeights tiles(model);
    // Mixed prompt lengths put the batch slots at different positions.
    std::vector<Seq> seqs = {
        make_seq(7, 0, c.vocab_size), make_seq(5, 1, c.vocab_size),
        make_seq(2, 2, c.vocab_size), make_seq(8, 3, c.vocab_size),
        make_seq(3, 4, c.vocab_size), make_seq(6, 5, c.vocab_size),
        make_seq(4, 6, c.vocab_size)};
    for (const bool fp16 : {false, true}) {
      for (const bool chunked : {false, true}) {
        for (const bool inject : {false, true}) {
          const ExecConfig exec{fp16, chunked, &pool};
          // Oracle runs, one per sequence.
          std::vector<std::unique_ptr<Probe>> ref_probes;
          std::vector<NaiveForward> refs;
          refs.reserve(seqs.size());
          for (Seq& s : seqs) {
            Probe& p =
                *ref_probes.emplace_back(std::make_unique<Probe>(c, inject));
            NaiveForward& ref = refs.emplace_back(model, exec);
            s.logits.clear();
            std::vector<float> l;
            for (const int t : s.prompt) l = ref.step(t, true, p.chain);
            s.logits.push_back(bits(l));
            for (const int t : s.decode) {
              s.logits.push_back(bits(ref.step(t, false, p.chain)));
            }
          }
          // The NaN poked at position 8 reaches protection in decode.
          EXPECT_EQ(ref_probes[0]->protect.stats().nan_corrected,
                    inject ? 1u : 0u);
          for (const bool paged : {false, true}) {
            const PackedDecodeWeights* batch_tiles = paged ? &tiles : nullptr;
            SCOPED_TRACE(::testing::Message()
                         << kernel_tier_name(tier) << " family "
                         << static_cast<int>(fam) << " fp16=" << fp16
                         << " chunked=" << chunked << " inject=" << inject
                         << " paged=" << paged);
            // 3-row blocks: enough for every sequence of the leg at once.
            KvBlockPool kv_pool(c.n_blocks, c.d_model, 32, 3);
            KvBlockPool* pool_or_null = paged ? &kv_pool : nullptr;
            std::vector<float> logits(c.vocab_size);
            // Single-sequence entry points on seqs[0] (7 prompt positions:
            // chunk 3 leaves a 1-wide last chunk).
            for (const std::size_t chunk :
                 {kPositionPath, std::size_t{1}, std::size_t{3},
                  std::size_t{0}}) {
              SCOPED_TRACE(::testing::Message() << "chunk " << chunk);
              const Seq& want = seqs[0];
              Seq got = want;
              got.logits.clear();
              Probe probe(c, inject);
              KvCache cache = make_cache(model, pool_or_null);
              Workspace ws(c);
              const std::span<const int> prompt(want.prompt);
              for (std::size_t p = 0; p < prompt.size();) {
                const std::size_t n =
                    chunk == kPositionPath
                        ? 1
                        : prefill_chunk_rows(chunk, p, prompt.size());
                const std::span<float> out =
                    p + n == prompt.size() ? std::span<float>(logits)
                                           : std::span<float>{};
                ASSERT_TRUE(cache.reserve_rows(n));
                if (chunk == kPositionPath) {
                  model.forward_position(prompt[p], p, cache, probe.chain,
                                         exec, true, ws, out);
                } else {
                  model.forward_span(prompt.subspan(p, n), p, cache,
                                     probe.chain, exec, true, ws, out);
                }
                p += n;
              }
              got.logits.push_back(bits(logits));
              for (const int t : want.decode) {
                ASSERT_TRUE(cache.reserve_rows(1));
                model.forward_position(t, cache.length(), cache, probe.chain,
                                       exec, false, ws, logits);
                got.logits.push_back(bits(logits));
              }
              expect_same(want, *ref_probes[0], refs[0], got, probe, cache,
                          c);
            }
            // forward_batch over seqs[1..6] after a whole-prompt prefill;
            // steps vary the slot set and order: 6 and 5 slots (a
            // four-row GEMM group and 2 or 1 leftover rows), 3, 2 and
            // solo slots. Each sequence decodes all 3 of its tokens.
            SCOPED_TRACE("forward_batch");
            const std::size_t n_seq = seqs.size() - 1;
            std::vector<std::unique_ptr<Probe>> probes;
            std::vector<KvCache> caches;
            std::vector<Seq> got(seqs.begin() + 1, seqs.end());
            std::vector<std::vector<float>> slot_logits(
                n_seq, std::vector<float>(c.vocab_size));
            Workspace ws(c);
            for (std::size_t i = 0; i < n_seq; ++i) {
              Probe& p =
                  *probes.emplace_back(std::make_unique<Probe>(c, inject));
              KvCache& cache =
                  caches.emplace_back(make_cache(model, pool_or_null));
              got[i].logits.clear();
              ASSERT_TRUE(cache.reserve_rows(got[i].prompt.size()));
              model.forward_span(got[i].prompt, 0, cache, p.chain, exec, true,
                                 ws, slot_logits[i]);
              got[i].logits.push_back(bits(slot_logits[i]));
            }
            const std::vector<std::vector<std::size_t>> steps = {
                {0, 1, 2, 3, 4, 5}, {1}, {2, 0}, {4, 1, 2, 0, 3},
                {3, 5, 4},          {5}};
            std::vector<std::size_t> taken(n_seq, 0);
            for (const auto& step : steps) {
              std::vector<DecodeSlot> slots;
              for (const std::size_t i : step) {
                ASSERT_TRUE(caches[i].reserve_rows(1));
                slots.push_back({got[i].decode[taken[i]++],
                                 caches[i].length(), &caches[i],
                                 &probes[i]->chain, slot_logits[i]});
              }
              model.forward_batch(slots, exec, ws, batch_tiles);
              for (const std::size_t i : step) {
                got[i].logits.push_back(bits(slot_logits[i]));
              }
            }
            for (std::size_t i = 0; i < n_seq; ++i) {
              SCOPED_TRACE(::testing::Message() << "sequence " << i + 1);
              expect_same(seqs[i + 1], *ref_probes[i + 1], refs[i + 1],
                          got[i], *probes[i], caches[i], c);
            }
          }
        }
      }
    }
  }
  set_kernel_tier(saved);
}

void require_tier(KernelTier tier) {
  if (!kernel_tier_supported(tier)) {
    GTEST_SKIP() << "tier '" << kernel_tier_name(tier)
                 << "' is not supported on this host";
  }
}

TEST(ForwardOracle, EngineMatchesNaiveForwardOnSse) {
  expect_engine_matches_oracle(KernelTier::kSse);
}

TEST(ForwardOracle, EngineMatchesNaiveForwardOnAvx2) {
  require_tier(KernelTier::kAvx2);
  if (IsSkipped()) return;
  expect_engine_matches_oracle(KernelTier::kAvx2);
}

}  // namespace
}  // namespace ft2
