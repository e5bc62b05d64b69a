// Decoder-only transformer inference engine with hookable layer outputs.
//
// One row-segment engine runs every forward. Its rows are grouped into
// segments: consecutive rows that hold consecutive positions of one
// sequence, with that sequence's KV cache and hook chain. Each linear is
// one GEMM over all rows on the model's packed weight tiles, parallelised
// over a thread pool; attention stores every row's K/V, then runs one
// causal attention task per row over its own segment's cache. Three entry points build the segments:
//   - forward_span: one segment of a chunk of prompt positions (blocked
//     prefill);
//   - forward_position: forward_span over one position (incremental
//     decode of a single session);
//   - forward_batch: one single-row segment per sequence (batched decode).
// Results never depend on the grouping or the pool size: every output
// element is one dot product with a fixed accumulation order computed by
// exactly one task, cross-row dataflow only passes through the KV caches
// (stored after hooks), and each chain observes each site's values in
// increasing position order. tests/nn/forward_oracle_test.cpp checks all
// three against a naive scalar forward.
//
// Weights are always binary16 (see TransformerLM). When FP16 execution is
// modelled, every observable tensor — linear outputs, activation outputs,
// attention output, residual stream, norm outputs — is quantized onto the
// binary16 grid too, so injected bit flips and range restriction see
// exactly the values a half-precision GPU run would store. FP32 execution
// (ExecConfig::fp16 = false, the paper's Fig. 15) keeps FP32 activations
// over the same binary16 weights, as running an FP16 checkpoint in FP32
// would.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/config.hpp"
#include "nn/hooks.hpp"
#include "nn/kv_cache.hpp"
#include "nn/weights.hpp"
#include "tensor/ops.hpp"

namespace ft2 {

class ThreadPool;  // common/thread_pool.hpp

/// Scratch buffers reused across forwards: one row per engine row (a
/// prefill chunk's positions, or one row per batched-decode sequence),
/// except `scores`, which holds one row per attention task.
struct Workspace {
  Tensor x;         // [cap, d] residual stream
  Tensor h;         // [cap, d] normed input
  Tensor q, k, v;   // [cap, d]
  Tensor attn_out;  // [cap, d]
  Tensor o;         // [cap, d]
  Tensor f1, f_up, act;  // [cap, d_ff]
  Tensor f2;        // [cap, d]
  Tensor scores;    // [tasks, n_heads * max_seq]: one [n_heads][len]
                    // block per attention task; grows to the task count
  Tensor final_h;   // [cap, d]
  Tensor logits;    // [cap, vocab] LM head rows

  explicit Workspace(const ModelConfig& config, std::size_t chunk_capacity = 1);

  /// Rows currently allocated for blocked processing.
  std::size_t chunk_capacity() const { return x.dim(0); }

  /// Grows the scratch buffers to hold at least `rows` positions. No-op when
  /// already large enough; existing row-0 contents are not preserved.
  void ensure_chunk_capacity(const ModelConfig& config, std::size_t rows);
};

/// Execution configuration: numeric-semantics knobs that model different
/// hardware. `fp16` selects half-precision activation semantics (weights
/// are binary16 either way); `chunked_accum`
/// accumulates dot products in 8-wide partial sums (a different tiling /
/// reduction order, as a different GPU generation would use) — results stay
/// semantically equivalent but differ in float rounding, which is exactly
/// what the hardware-sensitivity experiment (Fig. 16) varies. `pool` selects
/// the thread pool a forward runs its multi-row GEMMs and attention rows on
/// (null = process-wide pool); the pool size never affects results, only
/// wall-clock time.
struct ExecConfig {
  bool fp16 = true;
  bool chunked_accum = false;
  ThreadPool* pool = nullptr;
};

class TransformerLM;

/// A model's linears — attention projections, MLP and LM head — packed
/// into k-outer GEMM tiles (tensor/ops.hpp): the one form a TransformerLM
/// keeps them in. Every forward runs its linear sites from these tiles.
struct PackedDecodeWeights {
  struct Block {
    PackedLinear q, k, v, o;
    PackedLinear fc1, up, fc2;  ///< up only for Llama-family gate/up/down
  };
  std::vector<Block> blocks;
  PackedLinear lm_head;

  /// Packs every linear of `weights`, freeing each row-major tensor right
  /// after packing it, so the peak grows by at most one linear. The
  /// embeddings and norms stay in `weights`.
  PackedDecodeWeights(const ModelConfig& config, ModelWeights& weights);

  /// A copy of `model`'s own tiles.
  explicit PackedDecodeWeights(const TransformerLM& model);
};

/// The parameters a TransformerLM keeps row-major: the embeddings and the
/// norms, each read one row or one vector at a time.
struct DenseWeights {
  Tensor tok_emb;  ///< [vocab, d]
  Tensor pos_emb;  ///< [max_seq, d], learned-position models only
  NormWeights final_norm;
  std::vector<NormWeights> norm1, norm2;  ///< per block; norm2 unused when
                                          ///< parallel_block
};

/// One sequence's slot in a batched decode step (forward_batch). The cache,
/// hook chain and logits belong to the slot's session; forward_batch never
/// lets dataflow cross slots — only the read-only weights and the scratch
/// workspace rows are shared — so each sequence computes exactly what it
/// would decoding alone.
struct DecodeSlot {
  int token = -1;              ///< token to feed at this step
  std::size_t pos = 0;         ///< sequence position (== cache->length())
  KvCache* cache = nullptr;    ///< this sequence's KV cache
  const HookChain* hooks = nullptr;  ///< this sequence's hook chain
  std::span<float> logits;     ///< [vocab_size] output for this sequence
};

/// An inference model. Every parameter is on the binary16 grid, as in the
/// FP16 checkpoints the paper protects. Its linears live only as packed
/// binary16 tiles (tiles()), packed once at construction; the embeddings,
/// norms and biases are FP32 storage holding binary16 values. ModelWeights
/// is the row-major interchange form it is built from and exports back to
/// (checkpoints, digests, training).
class TransformerLM {
 public:
  /// Rounds every parameter of `weights` to the nearest binary16 (ties to
  /// even; a value already on the grid, like every init_weights draw, is
  /// unchanged), packs every linear (see PackedDecodeWeights) and keeps
  /// the embeddings and norms.
  TransformerLM(ModelConfig config, ModelWeights weights);

  const ModelConfig& config() const { return config_; }
  const PackedDecodeWeights& tiles() const { return tiles_; }
  const DenseWeights& dense() const { return dense_; }

  /// One linear site's tiles, writable: a weight fault flips bits of the
  /// stored binary16 element in place, and every later forward on any
  /// path sees it.
  PackedLinear& linear(const LayerSite& site);

  /// The weights unpacked to the row-major interchange form, every value
  /// widened from the binary16 grid: bit-identical to the ModelWeights
  /// this model was built from when those were on the grid, plus any
  /// weight edit made since (checkpoint save, weights_digest_hex). A model
  /// built from its own export is the same model.
  ModelWeights export_weights() const;

  /// Computes logits for the token at sequence position `pos`.
  /// Preconditions: cache.length() == pos. Appends this position's K/V to
  /// the cache and advances it. `logits` must have vocab_size elements, or
  /// be empty to skip the LM head. Hooks fire for every observable layer
  /// output.
  void forward_position(int token, std::size_t pos, KvCache& cache,
                        const HookChain& hooks, const ExecConfig& exec,
                        bool first_token_phase, Workspace& ws,
                        std::span<float> logits) const;

  /// Blocked prefill: processes `tokens` at sequence positions
  /// [pos0, pos0 + tokens.size()) through every layer as a batched GEMM,
  /// appends the chunk's K/V to the cache in one shot and applies causal
  /// attention per chunk row. Bit-exact with any other split of the same
  /// positions into chunks, at any pool size (see file header). Hooks fire
  /// once per layer site with a [n_positions x width] span view. `logits`
  /// receives the output for the LAST span position only (intermediate
  /// prefill logits are never observed by generate); pass an empty span to
  /// skip the LM head entirely.
  void forward_span(std::span<const int> tokens, std::size_t pos0,
                    KvCache& cache, const HookChain& hooks,
                    const ExecConfig& exec, bool first_token_phase,
                    Workspace& ws, std::span<float> logits) const;

  /// Batched decode: advances every slot's sequence by one position in a
  /// single pass, stacking the B slots' rows into a B x K * K x N GEMM per
  /// linear layer (the serve engine's continuous-batching kernel). Each
  /// slot keeps its own cache, hook chain and logits; hooks fire per slot
  /// row with single-position contexts, in slot order at every site, so a
  /// slot's hook chain observes exactly the call sequence forward_position
  /// would produce (batching is invisible to per-sequence state).
  /// Bit-exact with calling forward_position once per slot, at any batch
  /// size and pool size. Decode always runs with first_token_phase ==
  /// false. `tiles` (optional) are run instead of the model's own; null
  /// means the model's.
  void forward_batch(std::span<DecodeSlot> slots, const ExecConfig& exec,
                     Workspace& ws,
                     const PackedDecodeWeights* tiles = nullptr) const;

  KvCache make_cache() const {
    return KvCache(config_.n_blocks, config_.max_seq, config_.d_model);
  }

 private:
  ModelConfig config_;
  DenseWeights dense_;
  PackedDecodeWeights tiles_;
};

/// Decoding options. Default is greedy (temperature 0), which every
/// fault-injection experiment uses for determinism; temperature/top-k
/// sampling is available for application use and is itself deterministic
/// given `sample_seed`.
struct GenerateOptions {
  std::size_t max_new_tokens = 32;
  int eos_token = -1;      ///< stop when this token is produced (< 0: never)
  bool fp16 = true;        ///< model FP16 value semantics
  bool chunked_accum = false;  ///< alternate reduction order (see ExecConfig)
  float temperature = 0.0f;    ///< 0 = greedy; > 0 = softmax sampling
  std::size_t top_k = 0;       ///< 0 = all tokens; else sample among top-k
  std::uint64_t sample_seed = 1;  ///< RNG seed for sampling decode
  /// Prompt positions processed per blocked-prefill chunk. 1 = one
  /// position at a time; 0 = the whole prompt in one chunk. Every chunk
  /// size gives bit-identical results, so this is purely a speed knob.
  std::size_t prefill_chunk = 32;
  ThreadPool* pool = nullptr;  ///< pool for blocked prefill (null = global)
};

struct GenerateResult {
  std::vector<int> tokens;        ///< generated tokens (no prompt, no EOS)
  std::size_t positions_run = 0;  ///< forward positions executed
  bool hit_max = false;           ///< stopped by max_new_tokens/max_seq
  bool cancelled = false;         ///< stopped early by ServeEngine::cancel
};

/// Width of the prefill chunk that starts at `pos` of a `len`-position
/// prefill cut into chunks of `chunk` positions from position 0 (0 = the
/// whole remainder in one chunk).
std::size_t prefill_chunk_rows(std::size_t chunk, std::size_t pos,
                               std::size_t len);

/// Temperature / top-k sampling over logits — the decode-step token choice
/// for `temperature > 0`. Deterministic given `rng`; NaN-poisoned logits
/// fall back to the argmax candidate. Each ServeEngine request draws from
/// its own `rng`, so batched decode draws the stream a solo run does.
int sample_from_logits(std::span<const float> logits, float temperature,
                       std::size_t top_k, Xoshiro256& rng);

/// Immutable record of one completed generation, reusable as a shared
/// fault-free prefix by forks (InferenceSession::resume_from).
///
/// A greedy (or fixed-seed sampling) generation is deterministic, and the
/// KV cache is append-only — a position's K/V rows are written exactly once
/// and never touched again. One snapshot of the final cache therefore
/// serves EVERY token boundary of the run: forking at position p only needs
/// rows [0, p), which are a prefix of the recorded rows. The snapshot keeps
/// a compact copy (stored rows only, not max_seq) behind a shared_ptr; it
/// is never written after recording, so any number of concurrent forks
/// (one per campaign worker) read it at once, and no fork copies it.
struct SessionSnapshot {
  std::vector<int> prompt;     ///< the recorded prompt
  std::size_t prompt_len = 0;  ///< prefilled positions (prompt, truncated)
  GenerateOptions options;     ///< options the recorded run used
  GenerateResult result;       ///< the recorded (fault-free) result
  /// K/V rows [0, result.positions_run) of the run, stored compactly
  /// ([rows, d_model] tensors, no max_seq slack).
  std::shared_ptr<const KvCache> cache;
  /// Sampling-RNG state after choosing token s (one entry per token), so a
  /// temperature > 0 fork draws exactly the suffix of the recorded stream.
  std::vector<Xoshiro256::State> rng_at;

  bool valid() const { return cache != nullptr && !result.tokens.empty(); }

  /// Fork positions span [prompt_len, last_boundary()]. Boundary b
  /// (position prompt_len + b) is the instant just before the decode
  /// forward at that position; last_boundary() is after the final forward.
  std::size_t last_boundary() const {
    return prompt_len + result.tokens.size() - 1;
  }
};

class ServeEngine;  // serve/serve_engine.hpp

/// Solo generation: a hook chain plus a one-request ServeEngine that the
/// session owns for its whole life. Every call submits one request, runs
/// the engine, copies the result out and releases the request, so solo and
/// served generations run the same code. The engine publishes no serve.*
/// metric or span, and runs every forward on GenerateOptions::pool.
class InferenceSession {
 public:
  explicit InferenceSession(const TransformerLM& model);
  ~InferenceSession();

  /// The session's hooks. Each generation's request shares this chain's
  /// entries (a HookChain copy), so hooks added here see every call.
  HookChain& hooks() { return hooks_; }

  /// Greedy generation. Prompt tokens are prefilled in blocked chunks of
  /// `options.prefill_chunk` positions (the "first token generation" phase
  /// of the paper) — bit-exact at any chunk size; hooks observe every
  /// position. Decode then continues one position at a time.
  GenerateResult generate(std::span<const int> prompt,
                          const GenerateOptions& options);

  /// Runs generate() while recording a SessionSnapshot for later forking.
  /// The generated result is bit-identical to a plain generate() call —
  /// recording only copies state, never alters the computation.
  ///
  /// `on_boundary(b)` fires once per token boundary with the hook chain
  /// quiescent: b = 0 right after prefill, b = k after the decode forward
  /// at position prompt_len + k - 1. Capture per-generation hook state
  /// (e.g. ProtectionHook::capture_state) there; resume_from(snap, pos)
  /// pairs with the capture at boundary pos - prompt_len.
  GenerateResult generate_recorded(
      std::span<const int> prompt, const GenerateOptions& options,
      SessionSnapshot& snap,
      const std::function<void(std::size_t)>& on_boundary = {});

  /// Forks from a recorded generation at sequence position `pos` (in
  /// [snap.prompt_len, snap.last_boundary()]): the recorded request as it
  /// stood at `pos`, swapped out (ServeEngine::submit_fork). Its admission
  /// restores rows [0, pos) from the snapshot, the sampling RNG resumes
  /// mid-stream, and generation continues with the recorded tokens up to
  /// `pos` already emitted. With the same hooks and hook state as the
  /// recorded run this reproduces its result bit for bit; with a fault
  /// injector registered it produces exactly what a full from-scratch
  /// faulty run would.
  ///
  /// `on_resume` fires after on_generation_begin has been dispatched and
  /// the cache/RNG restored, before the first forward — restore hook state
  /// (ProtectionHook::restore_state) there, so the begin reset cannot
  /// clobber it.
  ///
  /// `rejoin` (optional) lets a fork end as soon as it is back on the
  /// recording. It is asked at every boundary b (position prompt_len + b)
  /// the fork reaches with forwards still to run, as long as every forward
  /// since the fork stored K/V rows bit-identical to the recording's and
  /// every token chosen since equals the recorded one, with the sampler
  /// in the recorded state. The request's own state then equals the
  /// recording's at b. Whether the hooks' state does too is the
  /// callback's call (in a campaign: every injector fired and
  /// DetectionScheme::state_matches). Returning true ends the fork with
  /// the recorded result, which is exactly what running on would produce.
  /// The hooks then hold the fork's accounting up to b only; add the
  /// recording's remainder (ProtectionHook::rejoin).
  GenerateResult resume_from(
      const SessionSnapshot& snap, std::size_t pos,
      const std::function<void()>& on_resume = {},
      const std::function<bool(std::size_t)>& rejoin = {});

 private:
  /// Shares the hooks into request `id`, runs it and releases it.
  GenerateResult run(std::uint64_t id);

  HookChain hooks_;
  std::unique_ptr<ServeEngine> engine_;
};

}  // namespace ft2
