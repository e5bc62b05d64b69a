#include "nn/model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace ft2 {

namespace {

std::vector<std::size_t> shape2(std::size_t rows, std::size_t cols) {
  return {rows, cols};
}

}  // namespace

Workspace::Workspace(const ModelConfig& config, std::size_t chunk_capacity)
    : x(shape2(std::max<std::size_t>(chunk_capacity, 1), config.d_model)),
      h(x.shape()),
      q(x.shape()),
      k(x.shape()),
      v(x.shape()),
      attn_out(x.shape()),
      o(x.shape()),
      f1(shape2(x.dim(0), config.d_ff)),
      f_up(f1.shape()),
      act(f1.shape()),
      f2(x.shape()),
      scores(shape2(1, config.n_heads * config.max_seq)),
      final_h(x.shape()),
      logits(shape2(x.dim(0), config.vocab_size)) {}

void Workspace::ensure_chunk_capacity(const ModelConfig& config,
                                      std::size_t rows) {
  if (rows <= chunk_capacity()) return;
  *this = Workspace(config, rows);
}

namespace {

/// Packs one linear and frees its row-major storage.
PackedLinear pack_and_free(LinearWeights& lw) {
  PackedLinear pl(lw.w, lw.bias_span());
  lw = LinearWeights{};
  return pl;
}

void round_norm(NormWeights& nw) {
  quantize_tensor_f16(nw.gamma);
  quantize_tensor_f16(nw.beta);
}

/// Rounds the parameters a TransformerLM keeps as FP32 (embeddings, norms,
/// biases) onto the binary16 grid, each in one sweep; packing rounds the
/// linear weights. A value already on the grid is left as it is.
ModelWeights& round_dense_to_f16(const ModelConfig& config,
                                 ModelWeights& weights) {
  quantize_tensor_f16(weights.tok_emb);
  quantize_tensor_f16(weights.pos_emb);
  round_norm(weights.final_norm);
  for (BlockWeights& blk : weights.blocks) {
    for (const LayerKind kind : config.block_layers()) {
      if (is_linear_layer(kind)) {
        quantize_tensor_f16(block_linear(blk, config, kind).b);
      }
    }
    round_norm(blk.norm1);
    round_norm(blk.norm2);
  }
  return weights;
}

LinearWeights unpack(const PackedLinear& pl) {
  LinearWeights lw;
  lw.w = pl.unpack_weight();
  lw.has_bias = pl.has_bias;
  if (pl.has_bias) lw.b = pl.unpack_bias();
  return lw;
}

}  // namespace

PackedDecodeWeights::PackedDecodeWeights(const ModelConfig& config,
                                         ModelWeights& weights) {
  FT2_CHECK(weights.blocks.size() == config.n_blocks);
  blocks.resize(config.n_blocks);
  for (std::size_t b = 0; b < config.n_blocks; ++b) {
    for (const LayerKind kind : config.block_layers()) {
      if (!is_linear_layer(kind)) continue;
      block_linear(blocks[b], config, kind) =
          pack_and_free(block_linear(weights.blocks[b], config, kind));
    }
  }
  lm_head = pack_and_free(weights.lm_head);
}

PackedDecodeWeights::PackedDecodeWeights(const TransformerLM& model)
    : PackedDecodeWeights(model.tiles()) {}

TransformerLM::TransformerLM(ModelConfig config, ModelWeights weights)
    : config_(std::move(config)),
      tiles_(config_, round_dense_to_f16(config_, weights)) {
  dense_.tok_emb = std::move(weights.tok_emb);
  dense_.pos_emb = std::move(weights.pos_emb);
  dense_.final_norm = std::move(weights.final_norm);
  for (BlockWeights& blk : weights.blocks) {
    dense_.norm1.push_back(std::move(blk.norm1));
    dense_.norm2.push_back(std::move(blk.norm2));
  }
}

PackedLinear& TransformerLM::linear(const LayerSite& site) {
  FT2_CHECK(site.block >= 0 &&
            static_cast<std::size_t>(site.block) < config_.n_blocks);
  return block_linear(tiles_.blocks[static_cast<std::size_t>(site.block)],
                      config_, site.kind);
}

ModelWeights TransformerLM::export_weights() const {
  ModelWeights w;
  w.tok_emb = dense_.tok_emb;
  w.pos_emb = dense_.pos_emb;
  w.final_norm = dense_.final_norm;
  w.lm_head = unpack(tiles_.lm_head);
  w.blocks.resize(config_.n_blocks);
  for (std::size_t b = 0; b < config_.n_blocks; ++b) {
    for (const LayerKind kind : config_.block_layers()) {
      if (!is_linear_layer(kind)) continue;
      block_linear(w.blocks[b], config_, kind) =
          unpack(block_linear(tiles_.blocks[b], config_, kind));
    }
    w.blocks[b].norm1 = dense_.norm1[b];
    w.blocks[b].norm2 = dense_.norm2[b];
  }
  return w;
}

namespace {

inline void maybe_quantize(std::span<float> v, bool fp16) {
  if (fp16) quantize_span_f16(v);
}

ThreadPool& exec_pool(const ExecConfig& exec) {
  return exec.pool != nullptr ? *exec.pool : ThreadPool::global();
}

/// A run of consecutive workspace rows that belong to one sequence: rows
/// [row0, row0 + tokens.size()) hold positions [pos0, pos0 +
/// tokens.size()) of the sequence whose cache and hook chain it carries.
struct Segment {
  std::size_t row0 = 0;
  std::size_t pos0 = 0;
  std::span<const int> tokens;
  KvCache* cache = nullptr;
  const HookChain* hooks = nullptr;
  bool first_token = false;
  std::span<float> logits;  ///< the last row's logits; empty = no LM head

  std::size_t n() const { return tokens.size(); }
};

using PackedBlock = PackedDecodeWeights::Block;

/// The one forward engine behind forward_position, forward_span and
/// forward_batch. Embedding, norms, residuals and RoPE run per row; every
/// linear is one GEMM over all rows; attention stores every row's K/V,
/// then attends each row over its own segment's cache. The engine owns the
/// cache's key layout: it stores each key row head-interleaved (element
/// (head h, dim i) at i * n_heads + h) after RoPE and the quantize sweep,
/// so K_PROJ hooks see canonical head-major keys, and it stores value rows
/// as projected. Cross-row dataflow
/// only passes through the caches, so a row computes exactly what the
/// same position run alone would, in any grouping and at any pool size.
/// Hooks see one dispatch per segment and site, in segment order.
class RowEngine {
 public:
  RowEngine(const TransformerLM& model, std::span<const Segment> segs,
            const ExecConfig& exec, Workspace& ws,
            const PackedDecodeWeights& tiles)
      : c_(model.config()),
        w_(model.dense()),
        segs_(segs),
        exec_(exec),
        ws_(ws),
        tiles_(tiles),
        pool_(exec_pool(exec)) {
    FT2_CHECK_MSG(tiles.blocks.size() == c_.n_blocks,
                  "packed weights built for a different model");
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Segment& s = segs[i];
      FT2_CHECK(s.n() > 0 && s.row0 == seg_of_row_.size());
      FT2_CHECK(s.cache != nullptr && s.hooks != nullptr);
      FT2_CHECK_MSG(s.cache->length() == s.pos0,
                    "cache length " << s.cache->length() << " != pos "
                                    << s.pos0);
      FT2_CHECK(s.pos0 + s.n() <= c_.max_seq);
      FT2_CHECK(s.logits.empty() || s.logits.size() == c_.vocab_size);
      for (const int token : s.tokens) {
        FT2_CHECK(token >= 0 &&
                  static_cast<std::size_t>(token) < c_.vocab_size);
      }
      seg_of_row_.insert(seg_of_row_.end(), s.n(), i);
    }
    rows_ = seg_of_row_.size();
    ws.ensure_chunk_capacity(c_, rows_);
  }

  void run() {
    const bool fp16 = exec_.fp16;
    for (std::size_t r = 0; r < rows_; ++r) {
      const Segment& s = seg(r);
      auto x = ws_.x.row(r);
      const auto emb = w_.tok_emb.row(
          static_cast<std::size_t>(s.tokens[r - s.row0]));
      std::copy(emb.begin(), emb.end(), x.begin());
      if (c_.position == PositionKind::kLearned) {
        add_inplace(x, w_.pos_emb.row(pos(r)));
      }
      maybe_quantize(x, fp16);
    }

    for (block_ = 0; block_ < c_.n_blocks; ++block_) {
      const PackedBlock& blk = tiles_.blocks[block_];
      norm_rows(w_.norm1[block_]);
      attention(blk);
      if (c_.parallel_block) {
        // GPT-J: the MLP reads the same normed input; one residual add.
        mlp(blk);
        for (std::size_t r = 0; r < rows_; ++r) {
          add_inplace(ws_.x.row(r), ws_.o.row(r));
          add_inplace(ws_.x.row(r), ws_.f2.row(r));
          maybe_quantize(ws_.x.row(r), fp16);
        }
      } else {
        for (std::size_t r = 0; r < rows_; ++r) {
          add_inplace(ws_.x.row(r), ws_.o.row(r));
          maybe_quantize(ws_.x.row(r), fp16);
        }
        norm_rows(w_.norm2[block_]);
        mlp(blk);
        for (std::size_t r = 0; r < rows_; ++r) {
          add_inplace(ws_.x.row(r), ws_.f2.row(r));
          maybe_quantize(ws_.x.row(r), fp16);
        }
      }
    }
    for (const Segment& s : segs_) s.cache->advance(s.n());
    lm_head();
  }

 private:
  const Segment& seg(std::size_t r) const { return segs_[seg_of_row_[r]]; }
  std::size_t pos(std::size_t r) const {
    const Segment& s = seg(r);
    return s.pos0 + (r - s.row0);
  }

  HookContext context(const Segment& s, LayerKind kind,
                      std::size_t width) const {
    return HookContext{LayerSite{static_cast<int>(block_), kind}, s.pos0,
                       s.first_token, s.n(), width};
  }

  /// h.row(r) = norm(x.row(r)), quantized, for every row.
  void norm_rows(const NormWeights& nw) const {
    for (std::size_t r = 0; r < rows_; ++r) {
      norm_row(nw, ws_.x.row(r), ws_.h.row(r));
    }
  }

  void norm_row(const NormWeights& nw, std::span<const float> in,
                std::span<float> out) const {
    if (c_.norm == NormKind::kLayerNorm) {
      layernorm_row(in, nw.gamma.span(), nw.beta.span(), c_.norm_eps, out);
    } else {
      rmsnorm_row(in, nw.gamma.span(), c_.norm_eps, out);
    }
    maybe_quantize(out, exec_.fp16);
  }

  /// One linear site: one packed GEMM over all rows as plain math, then
  /// the quantize sweep and hook dispatch per segment.
  void linear(const PackedLinear& pl, const Tensor& in, Tensor& out,
              LayerKind kind) {
    linear_forward_span_packed(in, rows_, pl, out, pool_,
                               exec_.chunked_accum);
    finish(out, kind);
  }

  /// Finishes a computed site output (a linear's GEMM rows or an
  /// activation) per segment: the quantize sweep, then the segment's hook
  /// chain.
  void finish(Tensor& out, LayerKind kind) const {
    const std::size_t width = out.dim(1);
    for (const Segment& s : segs_) {
      const std::span<float> values{out.row(s.row0).data(), s.n() * width};
      maybe_quantize(values, exec_.fp16);
      s.hooks->dispatch(context(s, kind, width), values);
    }
  }

  void attention(const PackedBlock& blk) {
    linear(blk.q, ws_.h, ws_.q, LayerKind::kQProj);
    linear(blk.k, ws_.h, ws_.k, LayerKind::kKProj);
    linear(blk.v, ws_.h, ws_.v, LayerKind::kVProj);

    // Every row's K/V lands in its cache before any row attends: a row
    // attends over [0, its position], which covers the earlier rows of its
    // own segment. Hooks already ran, so the stored values are the hooked
    // ones, exactly as when each position runs alone. Keys are stored
    // head-interleaved (see attend_row); the row's attention output, not
    // yet written, holds the reordered key until the store copies it.
    const std::size_t n_heads = c_.n_heads;
    const std::size_t head_dim = c_.head_dim();
    for (std::size_t r = 0; r < rows_; ++r) {
      if (c_.position == PositionKind::kRotary) {
        rope_apply(ws_.q.row(r), n_heads, head_dim, pos(r), c_.rope_theta);
        rope_apply(ws_.k.row(r), n_heads, head_dim, pos(r), c_.rope_theta);
        maybe_quantize(ws_.q.row(r), exec_.fp16);
        maybe_quantize(ws_.k.row(r), exec_.fp16);
      }
      interleave_heads(ws_.k.row(r), n_heads, head_dim, ws_.attn_out.row(r));
      seg(r).cache->store(block_, pos(r), ws_.attn_out.row(r), ws_.v.row(r));
    }

    // Causal attention: every row is independent, with a fixed loop order
    // inside it, so rows fan out over the pool in contiguous groups, only
    // as many as keep enough work per task (a short decode batch runs
    // inline) and no more than the pool has workers. Each task attends
    // its rows one after another in its own scores row.
    const std::size_t d = c_.d_model;
    std::size_t macs = 0;
    for (std::size_t r = 0; r < rows_; ++r) macs += 2 * d * (pos(r) + 1);
    const std::size_t tasks = std::min(pool_task_count(macs, rows_),
                                       std::max<std::size_t>(pool_.size(), 1));
    if (ws_.scores.dim(0) < tasks) {
      ws_.scores = Tensor(shape2(tasks, ws_.scores.dim(1)));
    }
    pool_.parallel_for(0, tasks, [&](std::size_t t) {
      for (std::size_t r = t * rows_ / tasks; r < (t + 1) * rows_ / tasks;
           ++r) {
        attend_row(r, ws_.scores.row(t));
      }
    });

    linear(blk.o, ws_.attn_out, ws_.o, LayerKind::kOutProj);
  }

  /// Causal attention of row `r` over its segment's cache, into
  /// ws_.attn_out.row(r), in four passes over all heads at once. Cached
  /// keys are head-interleaved: element (head h, dim i) of a key sits at
  /// i * n_heads + h (interleave_heads), so one dim of every head is
  /// contiguous; values keep the projection's head-major layout. The
  /// query, reordered the same way, borrows the output row until P·V
  /// zeroes it. Per contiguous run of cached rows, KernelOps::qk_heads
  /// writes every head's scores into a [len][n_heads] block of `scratch`
  /// (lanes over heads); one scale pass and quantize sweep go over the
  /// block, softmax_columns normalizes each head's column, another
  /// quantize sweep follows, and KernelOps::pv_heads adds each run's
  /// probability-weighted values. Every element keeps its scalar chain
  /// (ascending dims per score, ascending keys per max, sum and output),
  /// so neither runs nor lanes change a bit.
  void attend_row(std::size_t r, std::span<float> scratch) const {
    const KernelOps& ops = active_kernel_ops();
    const std::size_t n_heads = c_.n_heads;
    const std::size_t head_dim = c_.head_dim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    const KvCache& cache = *seg(r).cache;
    const std::size_t len = pos(r) + 1;
    const auto out = ws_.attn_out.row(r);
    interleave_heads(ws_.q.row(r), n_heads, head_dim, out);
    const std::span<float> scores = scratch.first(len * n_heads);
    for (std::size_t j = 0, n = 0; j < len; j += n) {
      n = std::min(cache.contiguous_rows(j), len - j);
      ops.qk_heads(out.data(), cache.key(block_, j).data(), n, n_heads,
                   head_dim, scores.data() + j * n_heads);
    }
    for (float& s : scores) s *= scale;
    maybe_quantize(scores, exec_.fp16);
    softmax_columns(scores.data(), len, n_heads);
    maybe_quantize(scores, exec_.fp16);
    std::fill(out.begin(), out.end(), 0.0f);
    for (std::size_t j = 0, n = 0; j < len; j += n) {
      n = std::min(cache.contiguous_rows(j), len - j);
      ops.pv_heads(scores.data() + j * n_heads, cache.value(block_, j).data(),
                   n, n_heads, head_dim, out.data());
    }
    maybe_quantize(out, exec_.fp16);
  }

  /// OPT / GPT-J: fc1 -> ReLU or GELU -> fc2. Llama family: gate (fc1) and
  /// up -> SiLU(gate) * up -> down (fc2).
  void mlp(const PackedBlock& blk) {
    const bool llama = c_.arch == ArchFamily::kLlama;
    linear(blk.fc1, ws_.h, ws_.f1,
           llama ? LayerKind::kGateProj : LayerKind::kFc1);
    if (llama) linear(blk.up, ws_.h, ws_.f_up, LayerKind::kUpProj);
    const std::span<float> act{ws_.act.data(), rows_ * c_.d_ff};
    std::copy_n(ws_.f1.data(), act.size(), act.data());
    if (llama) {
      silu(act);
    } else if (c_.activation == Activation::kRelu) {
      relu(act);
    } else {
      gelu(act);
    }
    finish(ws_.act, LayerKind::kMlpAct);
    if (llama) {
      mul_inplace(act, {ws_.f_up.data(), act.size()});
      maybe_quantize(act, exec_.fp16);
    }
    linear(blk.fc2, ws_.act, ws_.f2,
           llama ? LayerKind::kDownProj : LayerKind::kFc2);
  }

  /// Final norm of the last row of every segment that wants logits, then
  /// one LM-head GEMM over those rows: always the non-chunked chain, with
  /// no quantization and no hooks on logits. Intermediate prefill logits
  /// are never observed, so they are never computed.
  void lm_head() {
    std::size_t m = 0;
    for (const Segment& s : segs_) {
      if (s.logits.empty()) continue;
      norm_row(w_.final_norm, ws_.x.row(s.row0 + s.n() - 1),
               ws_.final_h.row(m++));
    }
    if (m == 0) return;
    linear_forward_span_packed(ws_.final_h, m, tiles_.lm_head, ws_.logits,
                               pool_);
    m = 0;
    for (const Segment& s : segs_) {
      if (s.logits.empty()) continue;
      const auto row = ws_.logits.row(m++);
      std::copy(row.begin(), row.end(), s.logits.begin());
    }
  }

  const ModelConfig& c_;
  const DenseWeights& w_;
  std::span<const Segment> segs_;
  const ExecConfig& exec_;
  Workspace& ws_;
  const PackedDecodeWeights& tiles_;
  ThreadPool& pool_;
  std::vector<std::size_t> seg_of_row_;  ///< segment index of each row
  std::size_t rows_ = 0;
  std::size_t block_ = 0;                ///< block being run
};

}  // namespace

void TransformerLM::forward_position(int token, std::size_t pos,
                                     KvCache& cache, const HookChain& hooks,
                                     const ExecConfig& exec,
                                     bool first_token_phase, Workspace& ws,
                                     std::span<float> logits) const {
  forward_span({&token, 1}, pos, cache, hooks, exec, first_token_phase, ws,
               logits);
}

void TransformerLM::forward_span(std::span<const int> tokens, std::size_t pos0,
                                 KvCache& cache, const HookChain& hooks,
                                 const ExecConfig& exec,
                                 bool first_token_phase, Workspace& ws,
                                 std::span<float> logits) const {
  const Segment seg{0, pos0, tokens, &cache, &hooks, first_token_phase, logits};
  RowEngine(*this, {&seg, 1}, exec, ws, tiles_).run();
}

void TransformerLM::forward_batch(std::span<DecodeSlot> slots,
                                  const ExecConfig& exec, Workspace& ws,
                                  const PackedDecodeWeights* tiles) const {
  if (slots.empty()) return;
  std::vector<Segment> segs;
  segs.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const DecodeSlot& s = slots[i];
    FT2_CHECK(s.logits.size() == config_.vocab_size);
    segs.push_back({i, s.pos, {&s.token, 1}, s.cache, s.hooks,
                    /*first_token=*/false, s.logits});
  }
  RowEngine(*this, segs, exec, ws, tiles != nullptr ? *tiles : tiles_).run();
}

std::size_t prefill_chunk_rows(std::size_t chunk, std::size_t pos,
                               std::size_t len) {
  FT2_CHECK(pos < len);
  return chunk == 0 ? len - pos : std::min(chunk, len - pos);
}

int sample_from_logits(std::span<const float> logits, float temperature,
                       std::size_t top_k, Xoshiro256& rng) {
  const std::size_t vocab = logits.size();
  std::vector<std::size_t> order(vocab);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return logits[a] > logits[b];
  });
  const std::size_t k =
      top_k == 0 ? vocab : std::min(top_k, vocab);

  // Stable softmax over the candidate set at the given temperature.
  std::vector<double> probs(k);
  const double mx = static_cast<double>(logits[order[0]]);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double z =
        (static_cast<double>(logits[order[i]]) - mx) / temperature;
    probs[i] = std::exp(z);
    sum += probs[i];
  }
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return static_cast<int>(order[0]);  // NaN-poisoned logits: fall back
  }
  double u = rng.uniform_double() * sum;
  for (std::size_t i = 0; i < k; ++i) {
    u -= probs[i];
    if (u <= 0.0) return static_cast<int>(order[i]);
  }
  return static_cast<int>(order[k - 1]);
}

}  // namespace ft2
