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
      scores(shape2(x.dim(0), config.max_seq)),
      final_h(x.shape()),
      logits(shape2(x.dim(0), config.vocab_size)) {}

void Workspace::ensure_chunk_capacity(const ModelConfig& config,
                                      std::size_t rows) {
  if (rows <= chunk_capacity()) return;
  *this = Workspace(config, rows);
}

TransformerLM::TransformerLM(ModelConfig config, ModelWeights weights)
    : config_(std::move(config)), weights_(std::move(weights)) {
  FT2_CHECK(weights_.blocks.size() == config_.n_blocks);
}

void TransformerLM::apply_norm_row(const NormWeights& nw,
                                   std::span<const float> in,
                                   std::span<float> out) const {
  if (config_.norm == NormKind::kLayerNorm) {
    layernorm_row(in, nw.gamma.span(), nw.beta.span(), config_.norm_eps, out);
  } else {
    rmsnorm_row(in, nw.gamma.span(), config_.norm_eps, out);
  }
}

namespace {

inline void maybe_quantize(std::span<float> v, bool fp16) {
  if (fp16) quantize_span_f16(v);
}

/// Fusion plan for one hook dispatch: whether any store-epilogue work runs
/// in the kernel (tensor/dispatch.hpp) and which hook, if any, supplied
/// the protection half.
struct FusedPlan {
  bool active = false;          ///< any fused work (quantize and/or protect)
  OutputHook* provider = nullptr;  ///< first hook, when it accepted fusion
  KernelEpilogue epi;
};

/// Negotiates the fused store epilogue for one dispatch. Fusion covers the
/// engine's own FP16 quantize pass plus — when the chain's FIRST hook
/// accepts plan_fused — the protection sweep. Chains led by a non-fusing
/// hook (e.g. a campaign's fault injector, which must corrupt values
/// BEFORE protection sees them), chunked-accumulation mode, and the
/// FT2_FUSED_EPILOGUE=0 kill switch all fall back to the legacy two-pass
/// path; results are bit-identical either way.
inline FusedPlan plan_output_fusion(const HookChain& hooks,
                                    const HookContext& ctx,
                                    const ExecConfig& exec) {
  FusedPlan plan;
  if (exec.chunked_accum || !fused_epilogue_enabled()) return plan;
  plan.epi.quantize = exec.fp16;
  OutputHook* first = hooks.first_hook();
  if (first != nullptr && first->plan_fused(ctx, plan.epi)) {
    plan.provider = first;
  }
  plan.active = plan.epi.quantize || plan.provider != nullptr;
  return plan;
}

/// Applies a negotiated plan to an already-computed span (the sites whose
/// producer is not a fused GEMM: single-row linears, activation outputs,
/// batched decode rows) in one sweep, then completes hook dispatch. With
/// no active plan this is the legacy quantize + full dispatch.
inline void finish_output(std::span<float> values, const HookContext& ctx,
                          const HookChain& hooks, const ExecConfig& exec) {
  const FusedPlan plan = plan_output_fusion(hooks, ctx, exec);
  if (!plan.active) {
    maybe_quantize(values, exec.fp16);
    hooks.dispatch(ctx, values);
    return;
  }
  EpilogueTally tally;
  active_kernel_ops().epilogue_span(
      values.data(), values.size(), 0, plan.epi,
      plan.provider != nullptr ? &tally : nullptr);
  if (plan.provider != nullptr) {
    plan.provider->absorb_fused(ctx, values, plan.epi, tally);
    hooks.dispatch_tail(ctx, values);
  } else {
    hooks.dispatch(ctx, values);
  }
}

ThreadPool& exec_pool(const ExecConfig& exec) {
  return exec.pool != nullptr ? *exec.pool : ThreadPool::global();
}

using PackedBlock = PackedDecodeWeights::Block;

/// The packed tiles of block `bi`, or null when running unpacked.
inline const PackedBlock* block_tiles(const PackedDecodeWeights* packed,
                                      std::size_t bi) {
  return packed != nullptr ? &packed->blocks[bi] : nullptr;
}

/// The packed tiles of one layer of `pb`, or null when running unpacked.
inline const PackedLinear* tiles(const PackedBlock* pb,
                                 PackedLinear PackedBlock::*layer) {
  return pb != nullptr ? &(pb->*layer) : nullptr;
}

/// One linear layer's GEMM over the first `rows` rows of `in`: from the
/// pre-packed tiles `pl` when given (non-chunked accumulation only),
/// otherwise from the weights with a per-call repack. Both run the same
/// kernel body, so results, tallies and event order are identical.
inline void linear_rows(const LinearWeights& lw, const PackedLinear* pl,
                        const Tensor& in, std::size_t rows, Tensor& out,
                        const ExecConfig& exec, ThreadPool& pool,
                        const KernelEpilogue* epi = nullptr,
                        EpilogueTally* tally = nullptr) {
  if (pl != nullptr && !exec.chunked_accum) {
    linear_forward_span_packed(in, rows, *pl, out, pool, epi, tally);
  } else {
    linear_forward_span(in, rows, lw.w, lw.bias_span(), out,
                        exec.chunked_accum, pool, epi, tally);
  }
}

/// Single-position linear. `pl` (with the `pool` that runs it) selects the
/// packed kernel; otherwise the active tier's row GEMV reads the row-major
/// weights on the calling thread. Both share one accumulation order.
inline void run_linear(const LinearWeights& lw, const PackedLinear* pl,
                       ThreadPool* pool, const Tensor& in, Tensor& out,
                       const ExecConfig& exec, const HookChain& hooks,
                       int block, LayerKind kind, std::size_t pos,
                       bool first_token) {
  if (pl != nullptr && !exec.chunked_accum) {
    linear_forward_span_packed(in, 1, *pl, out, *pool);
  } else if (exec.chunked_accum) {
    linear_forward_row_chunked(in.row(0), lw.w, lw.bias_span(), out.row(0));
  } else {
    linear_forward_row(in.row(0), lw.w, lw.bias_span(), out.row(0));
  }
  HookContext ctx{LayerSite{block, kind}, pos, first_token};
  finish_output(out.row(0), ctx, hooks, exec);
}

/// Blocked counterpart of run_linear: GEMM over the first `rows` rows of
/// `in`, FP16 quantization of the chunk (elementwise, so identical to
/// per-row quantization), and ONE hook dispatch carrying the whole
/// [rows x width] span. Per-element accumulation order matches run_linear.
/// With an active fusion plan the quantize/protect sweep runs inside the
/// GEMM store epilogue instead of as separate passes.
inline void run_linear_span(const LinearWeights& lw, const PackedLinear* pl,
                            const Tensor& in, std::size_t rows, Tensor& out,
                            const ExecConfig& exec, ThreadPool& pool,
                            const HookChain& hooks, int block, LayerKind kind,
                            std::size_t pos0, bool first_token) {
  const std::size_t width = out.dim(1);
  HookContext ctx{LayerSite{block, kind}, pos0, first_token, rows, width};
  const FusedPlan plan = plan_output_fusion(hooks, ctx, exec);
  if (!plan.active) {
    linear_rows(lw, pl, in, rows, out, exec, pool);
    std::span<float> view{out.data(), rows * width};
    maybe_quantize(view, exec.fp16);
    hooks.dispatch(ctx, view);
    return;
  }
  // An active plan implies non-chunked accumulation.
  EpilogueTally tally;
  linear_rows(lw, pl, in, rows, out, exec, pool, &plan.epi,
              plan.provider != nullptr ? &tally : nullptr);
  std::span<float> view{out.data(), rows * width};
  if (plan.provider != nullptr) {
    plan.provider->absorb_fused(ctx, view, plan.epi, tally);
    hooks.dispatch_tail(ctx, view);
  } else {
    hooks.dispatch(ctx, view);
  }
}

/// Cross-sequence counterpart of run_linear: one GEMM over the B slot rows,
/// then per-row quantization and a per-slot single-position hook dispatch —
/// each slot's chain sees exactly the context run_linear would have built
/// for it. Decode never runs in the first-token phase. `pl` supplies
/// pre-packed tiles (non-chunked accumulation only). Slots carry
/// independent hook chains, so fusion is per row (a one-sweep epilogue
/// after the GEMM) rather than inside the shared GEMM store.
inline void run_linear_batch(const LinearWeights& lw, const PackedLinear* pl,
                             const Tensor& in, std::span<DecodeSlot> slots,
                             Tensor& out, const ExecConfig& exec,
                             ThreadPool& pool, int block, LayerKind kind) {
  const std::size_t rows = slots.size();
  linear_rows(lw, pl, in, rows, out, exec, pool);
  for (std::size_t r = 0; r < rows; ++r) {
    HookContext ctx{LayerSite{block, kind}, slots[r].pos,
                    /*first_token_phase=*/false};
    finish_output(out.row(r), ctx, *slots[r].hooks, exec);
  }
}

}  // namespace

void TransformerLM::attention(const BlockWeights& blk, std::size_t block_idx,
                              std::size_t pos, KvCache& cache,
                              const HookChain& hooks, const ExecConfig& exec,
                              bool first_token, Workspace& ws,
                              const PackedDecodeWeights* packed,
                              ThreadPool* pool) const {
  const bool fp16 = exec.fp16;
  const int b = static_cast<int>(block_idx);
  const PackedBlock* pb = block_tiles(packed, block_idx);
  run_linear(blk.q, tiles(pb, &PackedBlock::q), pool, ws.h, ws.q, exec,
             hooks, b, LayerKind::kQProj, pos, first_token);
  run_linear(blk.k, tiles(pb, &PackedBlock::k), pool, ws.h, ws.k, exec,
             hooks, b, LayerKind::kKProj, pos, first_token);
  run_linear(blk.v, tiles(pb, &PackedBlock::v), pool, ws.h, ws.v, exec,
             hooks, b, LayerKind::kVProj, pos, first_token);

  const std::size_t n_heads = config_.n_heads;
  const std::size_t head_dim = config_.head_dim();
  if (config_.position == PositionKind::kRotary) {
    rope_apply(ws.q.row(0), n_heads, head_dim, pos, config_.rope_theta);
    rope_apply(ws.k.row(0), n_heads, head_dim, pos, config_.rope_theta);
    maybe_quantize(ws.q.row(0), fp16);
    maybe_quantize(ws.k.row(0), fp16);
  }

  cache.store(block_idx, pos, ws.k.row(0), ws.v.row(0));

  // Scaled dot-product attention over positions [0, pos].
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const std::size_t len = pos + 1;
  auto out = ws.attn_out.row(0);
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t hh = 0; hh < n_heads; ++hh) {
    const std::size_t off = hh * head_dim;
    auto scores = ws.scores.row(0).subspan(0, len);
    const float* qh = ws.q.row(0).data() + off;
    for (std::size_t j = 0; j < len; ++j) {
      const float* kh = cache.key(block_idx, j).data() + off;
      float dot = 0.0f;
      for (std::size_t i = 0; i < head_dim; ++i) dot += qh[i] * kh[i];
      scores[j] = dot * scale;
    }
    maybe_quantize(scores, fp16);
    softmax(scores);
    maybe_quantize(scores, fp16);
    float* oh = out.data() + off;
    for (std::size_t j = 0; j < len; ++j) {
      const float p = scores[j];
      if (p == 0.0f) continue;
      const float* vh = cache.value(block_idx, j).data() + off;
      for (std::size_t i = 0; i < head_dim; ++i) oh[i] += p * vh[i];
    }
  }
  maybe_quantize(out, fp16);

  run_linear(blk.o, tiles(pb, &PackedBlock::o), pool, ws.attn_out, ws.o, exec,
             hooks, b, LayerKind::kOutProj, pos, first_token);
}

void TransformerLM::mlp(const BlockWeights& blk, std::size_t block_idx,
                        const Tensor& input, const HookChain& hooks,
                        const ExecConfig& exec, bool first_token,
                        Workspace& ws, const PackedDecodeWeights* packed,
                        ThreadPool* pool) const {
  const bool fp16 = exec.fp16;
  const int b = static_cast<int>(block_idx);
  const bool llama = config_.arch == ArchFamily::kLlama;
  const PackedBlock* pb = block_tiles(packed, block_idx);
  // `pos` only matters for hook context; reuse the attention position via
  // ws.scores? Instead we thread pos through ws: simplest is to record it.
  const std::size_t pos = ws.current_pos;

  if (llama) {
    run_linear(blk.fc1, tiles(pb, &PackedBlock::fc1), pool, input, ws.f1,
               exec, hooks, b, LayerKind::kGateProj, pos, first_token);
    run_linear(blk.up, tiles(pb, &PackedBlock::up), pool, input, ws.f_up,
               exec, hooks, b, LayerKind::kUpProj, pos, first_token);
    std::copy(ws.f1.row(0).begin(), ws.f1.row(0).end(), ws.act.row(0).begin());
    silu(ws.act.row(0));
    finish_output(ws.act.row(0),
                  HookContext{LayerSite{b, LayerKind::kMlpAct}, pos,
                              first_token},
                  hooks, exec);
    mul_inplace(ws.act.row(0), ws.f_up.row(0));
    maybe_quantize(ws.act.row(0), fp16);
    run_linear(blk.fc2, tiles(pb, &PackedBlock::fc2), pool, ws.act, ws.f2,
               exec, hooks, b, LayerKind::kDownProj, pos, first_token);
  } else {
    run_linear(blk.fc1, tiles(pb, &PackedBlock::fc1), pool, input, ws.f1,
               exec, hooks, b, LayerKind::kFc1, pos, first_token);
    std::copy(ws.f1.row(0).begin(), ws.f1.row(0).end(), ws.act.row(0).begin());
    if (config_.activation == Activation::kRelu) {
      relu(ws.act.row(0));
    } else {
      gelu(ws.act.row(0));
    }
    finish_output(ws.act.row(0),
                  HookContext{LayerSite{b, LayerKind::kMlpAct}, pos,
                              first_token},
                  hooks, exec);
    run_linear(blk.fc2, tiles(pb, &PackedBlock::fc2), pool, ws.act, ws.f2,
               exec, hooks, b, LayerKind::kFc2, pos, first_token);
  }
}

void TransformerLM::forward_position(int token, std::size_t pos,
                                     KvCache& cache, const HookChain& hooks,
                                     const ExecConfig& exec,
                                     bool first_token_phase, Workspace& ws,
                                     std::span<float> logits,
                                     const PackedDecodeWeights* packed) const {
  const bool fp16 = exec.fp16;
  FT2_CHECK_MSG(cache.length() == pos,
                "cache length " << cache.length() << " != pos " << pos);
  FT2_CHECK(pos < config_.max_seq);
  FT2_CHECK(token >= 0 &&
            static_cast<std::size_t>(token) < config_.vocab_size);
  FT2_CHECK(logits.empty() || logits.size() == config_.vocab_size);
  check_packed(packed);
  // The pool only runs packed tiles; the unpacked path runs the row GEMV
  // (KernelOps::gemv_row) on the calling thread.
  ThreadPool* pool = packed != nullptr ? &exec_pool(exec) : nullptr;
  ws.current_pos = pos;

  // Embedding (+ learned positions for OPT).
  auto x = ws.x.row(0);
  auto emb = weights_.tok_emb.row(static_cast<std::size_t>(token));
  std::copy(emb.begin(), emb.end(), x.begin());
  if (config_.position == PositionKind::kLearned) {
    add_inplace(x, weights_.pos_emb.row(pos));
  }
  maybe_quantize(x, fp16);

  for (std::size_t bi = 0; bi < config_.n_blocks; ++bi) {
    const auto& blk = weights_.blocks[bi];
    apply_norm_row(blk.norm1, ws.x.row(0), ws.h.row(0));
    maybe_quantize(ws.h.row(0), fp16);

    attention(blk, bi, pos, cache, hooks, exec, first_token_phase, ws, packed,
              pool);

    if (config_.parallel_block) {
      // GPT-J: MLP reads the same normed input; single residual add.
      mlp(blk, bi, ws.h, hooks, exec, first_token_phase, ws, packed, pool);
      add_inplace(x, ws.o.row(0));
      add_inplace(x, ws.f2.row(0));
      maybe_quantize(x, fp16);
    } else {
      add_inplace(x, ws.o.row(0));
      maybe_quantize(x, fp16);
      apply_norm_row(blk.norm2, ws.x.row(0), ws.h.row(0));
      maybe_quantize(ws.h.row(0), fp16);
      mlp(blk, bi, ws.h, hooks, exec, first_token_phase, ws, packed, pool);
      add_inplace(x, ws.f2.row(0));
      maybe_quantize(x, fp16);
    }
  }
  cache.advance();

  if (logits.empty()) return;
  lm_head(ws.x.row(0), exec, ws, packed, pool, logits);
}

void TransformerLM::lm_head(std::span<const float> x, const ExecConfig& exec,
                            Workspace& ws, const PackedDecodeWeights* packed,
                            ThreadPool* pool, std::span<float> logits) const {
  apply_norm_row(weights_.final_norm, x, ws.final_h.row(0));
  maybe_quantize(ws.final_h.row(0), exec.fp16);
  // Always the non-chunked kernel, with no quantization and no hooks on
  // logits; packed tiles share linear_forward_row's accumulation order.
  if (packed != nullptr) {
    linear_forward_span_packed(ws.final_h, 1, packed->lm_head, ws.logits,
                               *pool);
    const auto row = ws.logits.row(0);
    std::copy(row.begin(), row.end(), logits.begin());
  } else {
    linear_forward_row(ws.final_h.row(0), weights_.lm_head.w, {}, logits);
  }
}

void TransformerLM::check_packed(const PackedDecodeWeights* packed) const {
  if (packed != nullptr) {
    FT2_CHECK_MSG(packed->blocks.size() == config_.n_blocks,
                  "packed weights built for a different model");
  }
}

void TransformerLM::attention_span(const BlockWeights& blk,
                                   std::size_t block_idx, std::size_t pos0,
                                   std::size_t n, KvCache& cache,
                                   const HookChain& hooks,
                                   const ExecConfig& exec, bool first_token,
                                   Workspace& ws, ThreadPool& pool,
                                   const PackedDecodeWeights* packed) const {
  const bool fp16 = exec.fp16;
  const int b = static_cast<int>(block_idx);
  const PackedBlock* pb = block_tiles(packed, block_idx);
  run_linear_span(blk.q, tiles(pb, &PackedBlock::q), ws.h, n, ws.q, exec,
                  pool, hooks, b, LayerKind::kQProj, pos0, first_token);
  run_linear_span(blk.k, tiles(pb, &PackedBlock::k), ws.h, n, ws.k, exec,
                  pool, hooks, b, LayerKind::kKProj, pos0, first_token);
  run_linear_span(blk.v, tiles(pb, &PackedBlock::v), ws.h, n, ws.v, exec,
                  pool, hooks, b, LayerKind::kVProj, pos0, first_token);

  const std::size_t n_heads = config_.n_heads;
  const std::size_t head_dim = config_.head_dim();
  if (config_.position == PositionKind::kRotary) {
    for (std::size_t r = 0; r < n; ++r) {
      rope_apply(ws.q.row(r), n_heads, head_dim, pos0 + r, config_.rope_theta);
      rope_apply(ws.k.row(r), n_heads, head_dim, pos0 + r, config_.rope_theta);
      maybe_quantize(ws.q.row(r), fp16);
      maybe_quantize(ws.k.row(r), fp16);
    }
  }

  // All of the chunk's K/V lands in the cache before any attention row runs:
  // row r attends over [0, pos0 + r], which includes earlier chunk rows.
  // Hooks already ran (above), so the stored values match the sequential
  // path, where each position's K/V is hooked, roped and stored before the
  // next position executes.
  for (std::size_t r = 0; r < n; ++r) {
    cache.store(block_idx, pos0 + r, ws.k.row(r), ws.v.row(r));
  }

  // Causal attention, one independent task per chunk row (fixed loop order
  // inside a row keeps it bit-exact with the sequential path).
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  pool.parallel_for(0, n, [&](std::size_t r) {
    const std::size_t len = pos0 + r + 1;
    auto out = ws.attn_out.row(r);
    std::fill(out.begin(), out.end(), 0.0f);
    for (std::size_t hh = 0; hh < n_heads; ++hh) {
      const std::size_t off = hh * head_dim;
      auto scores = ws.scores.row(r).subspan(0, len);
      const float* qh = ws.q.row(r).data() + off;
      for (std::size_t j = 0; j < len; ++j) {
        const float* kh = cache.key(block_idx, j).data() + off;
        float dot = 0.0f;
        for (std::size_t i = 0; i < head_dim; ++i) dot += qh[i] * kh[i];
        scores[j] = dot * scale;
      }
      maybe_quantize(scores, fp16);
      softmax(scores);
      maybe_quantize(scores, fp16);
      float* oh = out.data() + off;
      for (std::size_t j = 0; j < len; ++j) {
        const float p = scores[j];
        if (p == 0.0f) continue;
        const float* vh = cache.value(block_idx, j).data() + off;
        for (std::size_t i = 0; i < head_dim; ++i) oh[i] += p * vh[i];
      }
    }
    maybe_quantize(out, fp16);
  });

  run_linear_span(blk.o, tiles(pb, &PackedBlock::o), ws.attn_out, n, ws.o,
                  exec, pool, hooks, b, LayerKind::kOutProj, pos0,
                  first_token);
}

void TransformerLM::mlp_span(const BlockWeights& blk, std::size_t block_idx,
                             const Tensor& input, std::size_t pos0,
                             std::size_t n, const HookChain& hooks,
                             const ExecConfig& exec, bool first_token,
                             Workspace& ws, ThreadPool& pool,
                             const PackedDecodeWeights* packed) const {
  const bool fp16 = exec.fp16;
  const int b = static_cast<int>(block_idx);
  const bool llama = config_.arch == ArchFamily::kLlama;
  const std::size_t d_ff = config_.d_ff;
  std::span<float> act_view{ws.act.data(), n * d_ff};
  const PackedBlock* pb = block_tiles(packed, block_idx);

  if (llama) {
    run_linear_span(blk.fc1, tiles(pb, &PackedBlock::fc1), input, n, ws.f1,
                    exec, pool, hooks, b, LayerKind::kGateProj, pos0,
                    first_token);
    run_linear_span(blk.up, tiles(pb, &PackedBlock::up), input, n, ws.f_up,
                    exec, pool, hooks, b, LayerKind::kUpProj, pos0,
                    first_token);
    std::copy_n(ws.f1.data(), n * d_ff, ws.act.data());
    silu(act_view);
    finish_output(act_view,
                  HookContext{LayerSite{b, LayerKind::kMlpAct}, pos0,
                              first_token, n, d_ff},
                  hooks, exec);
    mul_inplace(act_view, {ws.f_up.data(), n * d_ff});
    maybe_quantize(act_view, fp16);
    run_linear_span(blk.fc2, tiles(pb, &PackedBlock::fc2), ws.act, n, ws.f2,
                    exec, pool, hooks, b, LayerKind::kDownProj, pos0,
                    first_token);
  } else {
    run_linear_span(blk.fc1, tiles(pb, &PackedBlock::fc1), input, n, ws.f1,
                    exec, pool, hooks, b, LayerKind::kFc1, pos0, first_token);
    std::copy_n(ws.f1.data(), n * d_ff, ws.act.data());
    if (config_.activation == Activation::kRelu) {
      relu(act_view);
    } else {
      gelu(act_view);
    }
    finish_output(act_view,
                  HookContext{LayerSite{b, LayerKind::kMlpAct}, pos0,
                              first_token, n, d_ff},
                  hooks, exec);
    run_linear_span(blk.fc2, tiles(pb, &PackedBlock::fc2), ws.act, n, ws.f2,
                    exec, pool, hooks, b, LayerKind::kFc2, pos0, first_token);
  }
}

void TransformerLM::forward_span(std::span<const int> tokens, std::size_t pos0,
                                 KvCache& cache, const HookChain& hooks,
                                 const ExecConfig& exec,
                                 bool first_token_phase, Workspace& ws,
                                 std::span<float> logits,
                                 const PackedDecodeWeights* packed) const {
  const std::size_t n = tokens.size();
  const bool fp16 = exec.fp16;
  FT2_CHECK(n > 0);
  FT2_CHECK_MSG(cache.length() == pos0,
                "cache length " << cache.length() << " != pos0 " << pos0);
  FT2_CHECK(pos0 + n <= config_.max_seq);
  FT2_CHECK(logits.empty() || logits.size() == config_.vocab_size);
  check_packed(packed);
  ws.ensure_chunk_capacity(config_, n);
  ws.current_pos = pos0;
  ThreadPool& pool = exec_pool(exec);

  for (std::size_t r = 0; r < n; ++r) {
    const int token = tokens[r];
    FT2_CHECK(token >= 0 &&
              static_cast<std::size_t>(token) < config_.vocab_size);
    auto x = ws.x.row(r);
    auto emb = weights_.tok_emb.row(static_cast<std::size_t>(token));
    std::copy(emb.begin(), emb.end(), x.begin());
    if (config_.position == PositionKind::kLearned) {
      add_inplace(x, weights_.pos_emb.row(pos0 + r));
    }
    maybe_quantize(x, fp16);
  }

  for (std::size_t bi = 0; bi < config_.n_blocks; ++bi) {
    const auto& blk = weights_.blocks[bi];
    for (std::size_t r = 0; r < n; ++r) {
      apply_norm_row(blk.norm1, ws.x.row(r), ws.h.row(r));
      maybe_quantize(ws.h.row(r), fp16);
    }

    attention_span(blk, bi, pos0, n, cache, hooks, exec, first_token_phase,
                   ws, pool, packed);

    if (config_.parallel_block) {
      mlp_span(blk, bi, ws.h, pos0, n, hooks, exec, first_token_phase, ws,
               pool, packed);
      for (std::size_t r = 0; r < n; ++r) {
        auto x = ws.x.row(r);
        add_inplace(x, ws.o.row(r));
        add_inplace(x, ws.f2.row(r));
        maybe_quantize(x, fp16);
      }
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        auto x = ws.x.row(r);
        add_inplace(x, ws.o.row(r));
        maybe_quantize(x, fp16);
        apply_norm_row(blk.norm2, ws.x.row(r), ws.h.row(r));
        maybe_quantize(ws.h.row(r), fp16);
      }
      mlp_span(blk, bi, ws.h, pos0, n, hooks, exec, first_token_phase, ws,
               pool, packed);
      for (std::size_t r = 0; r < n; ++r) {
        auto x = ws.x.row(r);
        add_inplace(x, ws.f2.row(r));
        maybe_quantize(x, fp16);
      }
    }
  }
  cache.advance(n);

  if (logits.empty()) return;
  // Only the last span position's logits are observable: generate() ignores
  // intermediate prefill logits, so the blocked path never computes them.
  lm_head(ws.x.row(n - 1), exec, ws, packed, &pool, logits);
}

void TransformerLM::attention_batch(const BlockWeights& blk,
                                    std::size_t block_idx,
                                    std::span<DecodeSlot> slots,
                                    const ExecConfig& exec, Workspace& ws,
                                    ThreadPool& pool,
                                    const PackedDecodeWeights* packed) const {
  const bool fp16 = exec.fp16;
  const int b = static_cast<int>(block_idx);
  const std::size_t n = slots.size();
  const PackedBlock* pb = block_tiles(packed, block_idx);
  run_linear_batch(blk.q, tiles(pb, &PackedBlock::q), ws.h, slots, ws.q, exec,
                   pool, b, LayerKind::kQProj);
  run_linear_batch(blk.k, tiles(pb, &PackedBlock::k), ws.h, slots, ws.k, exec,
                   pool, b, LayerKind::kKProj);
  run_linear_batch(blk.v, tiles(pb, &PackedBlock::v), ws.h, slots, ws.v, exec,
                   pool, b, LayerKind::kVProj);

  const std::size_t n_heads = config_.n_heads;
  const std::size_t head_dim = config_.head_dim();
  if (config_.position == PositionKind::kRotary) {
    for (std::size_t r = 0; r < n; ++r) {
      rope_apply(ws.q.row(r), n_heads, head_dim, slots[r].pos,
                 config_.rope_theta);
      rope_apply(ws.k.row(r), n_heads, head_dim, slots[r].pos,
                 config_.rope_theta);
      maybe_quantize(ws.q.row(r), fp16);
      maybe_quantize(ws.k.row(r), fp16);
    }
  }

  for (std::size_t r = 0; r < n; ++r) {
    slots[r].cache->store(block_idx, slots[r].pos, ws.k.row(r), ws.v.row(r));
  }

  // Causal attention, one independent task per slot — each row reads only
  // its own sequence's cache, with the sequential path's fixed loop order.
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  pool.parallel_for(0, n, [&](std::size_t r) {
    const KvCache& cache = *slots[r].cache;
    const std::size_t len = slots[r].pos + 1;
    auto out = ws.attn_out.row(r);
    std::fill(out.begin(), out.end(), 0.0f);
    for (std::size_t hh = 0; hh < n_heads; ++hh) {
      const std::size_t off = hh * head_dim;
      auto scores = ws.scores.row(r).subspan(0, len);
      const float* qh = ws.q.row(r).data() + off;
      for (std::size_t j = 0; j < len; ++j) {
        const float* kh = cache.key(block_idx, j).data() + off;
        float dot = 0.0f;
        for (std::size_t i = 0; i < head_dim; ++i) dot += qh[i] * kh[i];
        scores[j] = dot * scale;
      }
      maybe_quantize(scores, fp16);
      softmax(scores);
      maybe_quantize(scores, fp16);
      float* oh = out.data() + off;
      for (std::size_t j = 0; j < len; ++j) {
        const float p = scores[j];
        if (p == 0.0f) continue;
        const float* vh = cache.value(block_idx, j).data() + off;
        for (std::size_t i = 0; i < head_dim; ++i) oh[i] += p * vh[i];
      }
    }
    maybe_quantize(out, fp16);
  });

  run_linear_batch(blk.o, tiles(pb, &PackedBlock::o), ws.attn_out, slots,
                   ws.o, exec, pool, b, LayerKind::kOutProj);
}

void TransformerLM::mlp_batch(const BlockWeights& blk, std::size_t block_idx,
                              const Tensor& input,
                              std::span<DecodeSlot> slots,
                              const ExecConfig& exec, Workspace& ws,
                              ThreadPool& pool,
                              const PackedDecodeWeights* packed) const {
  const bool fp16 = exec.fp16;
  const int b = static_cast<int>(block_idx);
  const bool llama = config_.arch == ArchFamily::kLlama;
  const std::size_t n = slots.size();
  const std::size_t d_ff = config_.d_ff;
  std::span<float> act_view{ws.act.data(), n * d_ff};
  const PackedBlock* pb = block_tiles(packed, block_idx);

  // Per-slot MlpAct finish: the activation is elementwise, so row r holds
  // exactly the values the sequential path hands this slot's chain (the
  // quantize/protect sweep is fused per row when the slot's chain accepts).
  const auto finish_act = [&] {
    for (std::size_t r = 0; r < n; ++r) {
      HookContext ctx{LayerSite{b, LayerKind::kMlpAct}, slots[r].pos,
                      /*first_token_phase=*/false};
      finish_output(ws.act.row(r), ctx, *slots[r].hooks, exec);
    }
  };

  if (llama) {
    run_linear_batch(blk.fc1, tiles(pb, &PackedBlock::fc1), input, slots,
                     ws.f1, exec, pool, b, LayerKind::kGateProj);
    run_linear_batch(blk.up, tiles(pb, &PackedBlock::up), input, slots,
                     ws.f_up, exec, pool, b, LayerKind::kUpProj);
    std::copy_n(ws.f1.data(), n * d_ff, ws.act.data());
    silu(act_view);
    finish_act();
    mul_inplace(act_view, {ws.f_up.data(), n * d_ff});
    maybe_quantize(act_view, fp16);
    run_linear_batch(blk.fc2, tiles(pb, &PackedBlock::fc2), ws.act, slots,
                     ws.f2, exec, pool, b, LayerKind::kDownProj);
  } else {
    run_linear_batch(blk.fc1, tiles(pb, &PackedBlock::fc1), input, slots,
                     ws.f1, exec, pool, b, LayerKind::kFc1);
    std::copy_n(ws.f1.data(), n * d_ff, ws.act.data());
    if (config_.activation == Activation::kRelu) {
      relu(act_view);
    } else {
      gelu(act_view);
    }
    finish_act();
    run_linear_batch(blk.fc2, tiles(pb, &PackedBlock::fc2), ws.act, slots,
                     ws.f2, exec, pool, b, LayerKind::kFc2);
  }
}

void TransformerLM::forward_batch(std::span<DecodeSlot> slots,
                                  const ExecConfig& exec, Workspace& ws,
                                  const PackedDecodeWeights* packed) const {
  const std::size_t n = slots.size();
  if (n == 0) return;
  const bool fp16 = exec.fp16;
  for (const DecodeSlot& s : slots) {
    FT2_CHECK(s.cache != nullptr && s.hooks != nullptr);
    FT2_CHECK_MSG(s.cache->length() == s.pos,
                  "slot cache length " << s.cache->length() << " != pos "
                                       << s.pos);
    FT2_CHECK(s.pos < config_.max_seq);
    FT2_CHECK(s.token >= 0 &&
              static_cast<std::size_t>(s.token) < config_.vocab_size);
    FT2_CHECK(s.logits.size() == config_.vocab_size);
  }
  check_packed(packed);
  ws.ensure_chunk_capacity(config_, n);
  ThreadPool& pool = exec_pool(exec);

  for (std::size_t r = 0; r < n; ++r) {
    auto x = ws.x.row(r);
    auto emb =
        weights_.tok_emb.row(static_cast<std::size_t>(slots[r].token));
    std::copy(emb.begin(), emb.end(), x.begin());
    if (config_.position == PositionKind::kLearned) {
      add_inplace(x, weights_.pos_emb.row(slots[r].pos));
    }
    maybe_quantize(x, fp16);
  }

  for (std::size_t bi = 0; bi < config_.n_blocks; ++bi) {
    const auto& blk = weights_.blocks[bi];
    for (std::size_t r = 0; r < n; ++r) {
      apply_norm_row(blk.norm1, ws.x.row(r), ws.h.row(r));
      maybe_quantize(ws.h.row(r), fp16);
    }

    attention_batch(blk, bi, slots, exec, ws, pool, packed);

    if (config_.parallel_block) {
      mlp_batch(blk, bi, ws.h, slots, exec, ws, pool, packed);
      for (std::size_t r = 0; r < n; ++r) {
        auto x = ws.x.row(r);
        add_inplace(x, ws.o.row(r));
        add_inplace(x, ws.f2.row(r));
        maybe_quantize(x, fp16);
      }
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        auto x = ws.x.row(r);
        add_inplace(x, ws.o.row(r));
        maybe_quantize(x, fp16);
        apply_norm_row(blk.norm2, ws.x.row(r), ws.h.row(r));
        maybe_quantize(ws.h.row(r), fp16);
      }
      mlp_batch(blk, bi, ws.h, slots, exec, ws, pool, packed);
      for (std::size_t r = 0; r < n; ++r) {
        auto x = ws.x.row(r);
        add_inplace(x, ws.f2.row(r));
        maybe_quantize(x, fp16);
      }
    }
  }
  for (std::size_t r = 0; r < n; ++r) slots[r].cache->advance();

  // LM head: every slot's logits are observable each decode step. The
  // sequential path always uses the non-chunked kernel here, so the batch
  // does too (packed tiles share that accumulation order). No quantization
  // and no hooks on logits — exactly like forward_position.
  for (std::size_t r = 0; r < n; ++r) {
    apply_norm_row(weights_.final_norm, ws.x.row(r), ws.final_h.row(r));
    maybe_quantize(ws.final_h.row(r), fp16);
  }
  if (packed != nullptr) {
    linear_forward_span_packed(ws.final_h, n, packed->lm_head, ws.logits,
                               pool);
  } else {
    linear_forward_span(ws.final_h, n, weights_.lm_head.w, {}, ws.logits,
                        /*chunked_accum=*/false, pool);
  }
  for (std::size_t r = 0; r < n; ++r) {
    auto row = ws.logits.row(r);
    std::copy(row.begin(), row.end(), slots[r].logits.begin());
  }
}

PackedDecodeWeights::PackedDecodeWeights(const TransformerLM& model) {
  const ModelConfig& config = model.config();
  const ModelWeights& w = model.weights();
  const bool llama = config.arch == ArchFamily::kLlama;
  blocks.reserve(config.n_blocks);
  for (std::size_t bi = 0; bi < config.n_blocks; ++bi) {
    const BlockWeights& blk = w.blocks[bi];
    Block p;
    p.q = PackedLinear(blk.q.w, blk.q.bias_span());
    p.k = PackedLinear(blk.k.w, blk.k.bias_span());
    p.v = PackedLinear(blk.v.w, blk.v.bias_span());
    p.o = PackedLinear(blk.o.w, blk.o.bias_span());
    p.fc1 = PackedLinear(blk.fc1.w, blk.fc1.bias_span());
    if (llama) p.up = PackedLinear(blk.up.w, blk.up.bias_span());
    p.fc2 = PackedLinear(blk.fc2.w, blk.fc2.bias_span());
    blocks.push_back(std::move(p));
  }
  lm_head = PackedLinear(w.lm_head.w, {});
}

std::size_t PackedDecodeWeights::memory_bytes() const {
  std::size_t total = lm_head.memory_bytes();
  for (const Block& b : blocks) {
    total += b.q.memory_bytes() + b.k.memory_bytes() + b.v.memory_bytes() +
             b.o.memory_bytes() + b.fc1.memory_bytes() + b.up.memory_bytes() +
             b.fc2.memory_bytes();
  }
  return total;
}

InferenceSession::InferenceSession(const TransformerLM& model)
    : model_(model),
      cache_(model.make_cache()),
      ws_(model.config()),
      logits_(model.config().vocab_size) {}

std::size_t prefill_chunk_rows(std::size_t chunk, std::size_t pos,
                               std::size_t len) {
  FT2_CHECK(pos < len);
  return chunk == 0 ? len - pos : std::min(chunk, len - pos);
}

void forward_prefill_chunk(const TransformerLM& model,
                           std::span<const int> tokens, std::size_t pos,
                           std::size_t n, KvCache& cache,
                           const HookChain& hooks, const ExecConfig& exec,
                           Workspace& ws, std::span<float> logits,
                           const PackedDecodeWeights* packed) {
  FT2_CHECK(n > 0 && pos + n <= tokens.size());
  // Logits are only needed from the chunk that ends the sequence; earlier
  // chunks skip the LM head entirely.
  const std::span<float> out =
      pos + n == tokens.size() ? logits : std::span<float>{};
  if (n == 1) {
    model.forward_position(tokens[pos], pos, cache, hooks, exec,
                           /*first_token_phase=*/true, ws, out, packed);
  } else {
    model.forward_span(tokens.subspan(pos, n), pos, cache, hooks, exec,
                       /*first_token_phase=*/true, ws, out, packed);
  }
}

std::size_t run_prefill(const TransformerLM& model,
                        std::span<const int> prompt,
                        const GenerateOptions& options, KvCache& cache,
                        const HookChain& hooks, Workspace& ws,
                        std::span<float> logits) {
  const ExecConfig exec{options.fp16, options.chunked_accum, options.pool};
  const std::span<const int> tokens =
      prompt.first(std::min(prompt.size(), model.config().max_seq));
  for (std::size_t pos = 0; pos < tokens.size();) {
    const std::size_t n =
        prefill_chunk_rows(options.prefill_chunk, pos, tokens.size());
    forward_prefill_chunk(model, tokens, pos, n, cache, hooks, exec, ws,
                          logits);
    pos += n;
  }
  return tokens.size();
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

void InferenceSession::decode_loop(
    const GenerateOptions& options, std::size_t first_step, std::size_t pos,
    Xoshiro256& sampler, GenerateResult& result,
    const std::function<void(std::size_t)>& on_token,
    const std::function<void(std::size_t)>& after_forward) {
  const ExecConfig exec{options.fp16, options.chunked_accum, options.pool};
  const std::size_t max_seq = model_.config().max_seq;
  std::span<float> logits{logits_.data(), logits_.size()};

  // Greedy by default; NaN-poisoned logits: argmax picks the first index
  // when all comparisons are false, which is deterministic (faithful
  // "garbage token" behaviour).
  for (std::size_t step = first_step; step < options.max_new_tokens; ++step) {
    const int next =
        options.temperature > 0.0f
            ? sample_from_logits(logits, options.temperature, options.top_k,
                                 sampler)
            : static_cast<int>(argmax(logits));
    if (options.eos_token >= 0 && next == options.eos_token) break;
    result.tokens.push_back(next);
    if (on_token) on_token(step);
    if (step + 1 == options.max_new_tokens || pos >= max_seq) {
      result.hit_max = true;
      break;
    }
    model_.forward_position(next, pos, cache_, hooks_, exec,
                            /*first_token_phase=*/false, ws_, logits);
    ++pos;
    ++result.positions_run;
    if (after_forward) after_forward(step);
  }
}

GenerateResult InferenceSession::generate(std::span<const int> prompt,
                                          const GenerateOptions& options) {
  FT2_CHECK(!prompt.empty());
  GenerateResult result;
  // A session may alternate between forked trials and full generations; a
  // forked cache only owns its tail, so full runs start from a fresh cache.
  if (cache_.forked()) cache_ = model_.make_cache();
  cache_.reset();
  GenerationScope scope(hooks_);

  std::span<float> logits{logits_.data(), logits_.size()};

  // Prefill: the "first token generation" phase, processed in blocked
  // chunks (bit-exact with the sequential path at any chunk size).
  const std::size_t pos =
      run_prefill(model_, prompt, options, cache_, hooks_, ws_, logits);
  result.positions_run = pos;

  Xoshiro256 sampler(options.sample_seed);
  decode_loop(options, 0, pos, sampler, result, {}, {});
  return result;
}

GenerateResult InferenceSession::generate_recorded(
    std::span<const int> prompt, const GenerateOptions& options,
    SessionSnapshot& snap,
    const std::function<void(std::size_t)>& on_boundary) {
  FT2_CHECK(!prompt.empty());
  GenerateResult result;
  if (cache_.forked()) cache_ = model_.make_cache();
  cache_.reset();
  GenerationScope scope(hooks_);

  std::span<float> logits{logits_.data(), logits_.size()};
  const std::size_t pos =
      run_prefill(model_, prompt, options, cache_, hooks_, ws_, logits);
  result.positions_run = pos;

  snap = SessionSnapshot{};
  snap.prompt_len = pos;
  snap.options = options;
  if (on_boundary) on_boundary(0);

  Xoshiro256 sampler(options.sample_seed);
  decode_loop(
      options, 0, pos, sampler, result,
      /*on_token=*/
      [&](std::size_t) { snap.rng_at.push_back(sampler.state()); },
      /*after_forward=*/
      [&](std::size_t step) {
        if (on_boundary) on_boundary(step + 1);
      });
  scope.end();

  snap.result = result;
  // Retain only the rows the run actually stored (copy hygiene: no max_seq
  // slack travels with the snapshot).
  snap.cache = std::make_shared<const KvCache>(
      cache_.prefix_copy(cache_.length()));
  return result;
}

GenerateResult InferenceSession::resume_from(
    const SessionSnapshot& snap, std::size_t pos,
    const std::function<void()>& on_resume) {
  FT2_CHECK(snap.valid());
  FT2_CHECK_MSG(pos >= snap.prompt_len && pos <= snap.last_boundary(),
                "fork position " << pos << " outside ["
                                 << snap.prompt_len << ", "
                                 << snap.last_boundary() << "]");
  const GenerateOptions& options = snap.options;
  const std::size_t s = pos - snap.prompt_len;
  const std::size_t max_seq = model_.config().max_seq;

  GenerateResult result;
  result.tokens.assign(snap.result.tokens.begin(),
                       snap.result.tokens.begin() +
                           static_cast<std::ptrdiff_t>(s + 1));
  result.positions_run = pos;  // prefill + decode forwards before the fork

  // O(tail) fork: rows [0, pos) are shared with the snapshot; the owned
  // tail covers exactly the forwards this continuation can still run.
  const std::size_t horizon =
      std::min(snap.prompt_len + options.max_new_tokens - 1, max_seq);
  cache_ = KvCache::forked(snap.cache, pos, horizon > pos ? horizon - pos : 0);

  GenerationScope scope(hooks_);
  if (on_resume) on_resume();

  Xoshiro256 sampler(options.sample_seed);
  sampler.set_state(snap.rng_at[s]);

  // Tail of the recorded run's iteration s: it ended either by hitting the
  // generation limit (no forward left to run) or with the forward at `pos`.
  if (s + 1 == options.max_new_tokens || pos >= max_seq) {
    result.hit_max = true;
    return result;
  }
  std::span<float> logits{logits_.data(), logits_.size()};
  const ExecConfig exec{options.fp16, options.chunked_accum, options.pool};
  model_.forward_position(result.tokens.back(), pos, cache_, hooks_, exec,
                          /*first_token_phase=*/false, ws_, logits);
  ++pos;
  ++result.positions_run;
  decode_loop(options, s + 1, pos, sampler, result, {}, {});
  return result;
}

}  // namespace ft2
