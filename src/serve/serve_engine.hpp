// Continuous-batching serve engine with paged KV and an SLO scheduler.
//
// ServeEngine admits generation requests through a priority/deadline
// Scheduler (serve/scheduler.hpp), runs each request's blocked prefill in
// chunks interleaved with decode steps (bounded by prefill_chunk_budget so
// a long prompt never stalls decoding requests), then decodes all active
// sequences TOGETHER: each decode step stacks the B active sequences'
// current positions into one B x K * K x N GEMM per linear layer
// (TransformerLM::forward_batch), so weight traffic is amortized across
// sequences.
//
// KV memory is paged: requests map fixed-size ref-counted blocks from the
// engine's KvBlockPool as they grow (nn/kv_pool.hpp) instead of holding a
// dense max_seq allocation, so the pool — sized in bytes, like
// accelerator VRAM — bounds concurrency by actual sequence length. Common
// prompt prefixes of live hook-free requests share blocks copy-on-write
// (shared system prompts prefill once); under pool pressure the scheduler
// swaps the lowest-priority slot-holder's rows out to host memory and
// resumes it later, bit-exactly.
//
// Bit-exactness contract: the engine produces, for every request, exactly
// the token stream a solo generate with the same prompt and options would
// produce — at any max_batch, admission order, pool size, KV block size,
// prefill budget, and across swap-preemption. A solo generate
// (InferenceSession) is itself a one-request engine, so the contract says
// batching is invisible; tests/nn/generate_oracle_test.cpp pins the solo
// result against a naive loop.
// Hook traffic (begin / per-site dispatches in execution order / end),
// sampling RNG draws and protection statistics are also identical, with
// one documented exception: a request that adopted a shared prefix skips
// the prompt positions it adopted (prefix sharing is therefore offered to
// hook-free requests only). Tokens are bit-identical in every case.
//
// Single-threaded driver: submit/step/run/cancel must be called from one
// thread (layer GEMMs still fan out over the thread pool internally).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "nn/hooks.hpp"
#include "nn/kv_cache.hpp"
#include "nn/kv_pool.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "serve/scheduler.hpp"

namespace ft2 {

class ThreadPool;

/// Engine-level knobs.
struct ServeOptions {
  std::size_t max_batch = 8;   ///< max sequences holding slots per step
  /// Pool for the GEMM fan-out of requests whose GenerateOptions::pool is
  /// null (null = global).
  ThreadPool* pool = nullptr;

  /// Rows per block of the engine's KV pool (nn/kv_pool.hpp).
  std::size_t kv_block_rows = 16;
  /// Physical blocks in the pool. 0 = one full max_seq sequence per batch
  /// slot, max_batch * ceil(max_seq / kv_block_rows), so the default never
  /// preempts. Must cover at least one full sequence.
  std::size_t kv_pool_blocks = 0;

  /// Queue-depth backpressure: submit() beyond this many queued requests
  /// throws ft2::Error and counts serve.rejected. 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Max prompt positions prefetched per step() across all requests;
  /// chunks are never split, so one chunk always makes progress. 0 =
  /// unbounded (each admission prefills its whole prompt before decode —
  /// the pre-scheduler behavior).
  std::size_t prefill_chunk_budget = 0;
  /// Eviction mechanism under paged-pool pressure; swap is the only one
  /// (see scheduler.hpp).
  PreemptMode preempt = PreemptMode::kSwap;
  /// Copy-on-write sharing of committed full-block prompt prefixes across
  /// live hook-free requests with matching exec config (shared system
  /// prompts prefill once). Requests with hooks attached never share, so
  /// hook traffic stays bit-identical to a solo run. A request that
  /// adopted a prefix reports the skipped positions in
  /// RequestStats::shared_prefix_rows (its GenerateResult::positions_run
  /// counts only positions actually computed). Registered prefixes live
  /// until a reservation needs the blocks only they hold, least recently
  /// used first.
  bool share_prefix = false;

  /// Observability sinks. `obs.metrics` is the registry the engine
  /// publishes serve.* metrics to, and `obs.tracer` receives serve.prefill
  /// / serve.decode_step spans. Null publishes nothing (ObsSinks).
  ObsSinks obs;
};

/// Per-request timing / size counters.
struct RequestStats {
  std::size_t prompt_tokens = 0;
  std::size_t generated_tokens = 0;
  std::size_t decode_steps = 0;  ///< batched steps this request took part in
  /// Batch slot held from admission to completion: the lowest index free at
  /// admission time (< max_batch while decoding). Slots are reused once a
  /// request finishes; trace spans tag it so the Chrome exporter can lay
  /// decode work out per slot lane.
  std::size_t slot = 0;
  double queue_ms = 0.0;    ///< submit -> first admission
  double prefill_ms = 0.0;  ///< first admission -> prefill complete
  double decode_ms = 0.0;   ///< admission+prefill -> completion
  double ttft_ms = 0.0;     ///< submit -> first token emitted
  std::size_t shared_prefix_rows = 0;  ///< prompt rows adopted, not computed
  std::size_t preemptions = 0;         ///< times evicted back to the queue
};

/// Engine-wide counters.
///
/// Accumulation semantics: counters accumulate monotonically over the
/// ENGINE's lifetime — across every submit/step/run invocation — and are
/// never reset implicitly (a second run() continues the same tallies).
/// Call ServeEngine::reset_counters() to start a fresh accounting window;
/// the serve.* metrics published to a MetricsRegistry are independent and
/// stay monotonic regardless.
struct ServeCounters {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;           ///< submits refused by max_queue_depth
  std::size_t cancelled = 0;
  std::size_t preemptions = 0;        ///< evictions back to the queue
  std::size_t decode_steps = 0;       ///< forward_batch invocations
  std::size_t decode_rows = 0;        ///< total slot-rows across steps
  std::size_t prefill_positions = 0;  ///< prompt positions run
  std::size_t shared_prefix_rows = 0; ///< prompt positions adopted instead
  std::size_t generated_tokens = 0;
  std::size_t max_queue_depth = 0;
  std::size_t max_active = 0;  ///< peak concurrent slot-holders

  /// Mean decode batch size across steps (0 when no step ran).
  double avg_decode_batch() const {
    return decode_steps == 0
               ? 0.0
               : static_cast<double>(decode_rows) /
                     static_cast<double>(decode_steps);
  }

  /// Zeroes every counter (the explicit start of a new accounting window).
  void reset() { *this = ServeCounters{}; }
};

/// Continuous-batching generation engine over one model.
class ServeEngine {
 public:
  explicit ServeEngine(const TransformerLM& model, ServeOptions options = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Enqueues a generation request. The prompt is copied. Hooks can be
  /// attached via hooks(id) any time before the first step() admits the
  /// request (on_generation_begin fires at admission, like
  /// InferenceSession::generate firing at call time). Throws ft2::Error
  /// when max_queue_depth > 0 and the queue is full (serve.rejected).
  RequestId submit(std::span<const int> prompt, const GenerateOptions& options,
                   const ServeSubmitOptions& sched = {});

  /// Enqueues a generation that records `snap` for later forks: what
  /// InferenceSession::generate_recorded runs (see there for `on_boundary`).
  /// The result is bit-identical to submit()'s; `snap` is filled when the
  /// request finishes and must outlive it.
  RequestId submit_recorded(std::span<const int> prompt,
                            const GenerateOptions& options,
                            SessionSnapshot& snap,
                            std::function<void(std::size_t)> on_boundary = {});

  /// Enqueues a fork of `snap` at sequence position `pos` (a campaign
  /// trial): the recorded request as it stood at `pos`, swapped out. Its
  /// admission restores rows [0, pos) from the shared snap.cache through
  /// the swap-resume path, then opens the generation scope and calls
  /// `on_resume`. See InferenceSession::resume_from for `rejoin`; `snap`
  /// must outlive the request.
  RequestId submit_fork(const SessionSnapshot& snap, std::size_t pos,
                        std::function<void()> on_resume = {},
                        std::function<bool(std::size_t)> rejoin = {});

  /// Frees a finished (or cancelled) request; its id is unknown from then
  /// on. Throws ft2::Error for a request that has not finished.
  void release(RequestId id);

  /// The request's private hook chain (valid for queued, active and
  /// finished requests).
  HookChain& hooks(RequestId id);

  /// Cancels a request: a queued request never runs; an in-flight request
  /// stops after the current step with the tokens generated so far and
  /// GenerateResult::cancelled set. Returns false when already finished.
  bool cancel(RequestId id);

  /// One scheduler round: runs queued admissions and up to
  /// prefill_chunk_budget prompt positions of chunked prefill, then
  /// advances every decoding sequence by one batched decode step
  /// (preempting under pool pressure). Returns the number of sequences
  /// still holding slots (0 = idle).
  std::size_t step();

  /// Runs step() until all submitted requests have finished.
  void run();

  bool finished(RequestId id) const;

  /// Result of a finished request — identical to what
  /// InferenceSession::generate would have returned (see the bit-exactness
  /// contract in the file header).
  const GenerateResult& result(RequestId id) const;

  const RequestStats& request_stats(RequestId id) const;
  const ServeCounters& counters() const { return counters_; }

  /// Starts a fresh ServeCounters accounting window (see ServeCounters for
  /// the accumulation semantics). Does not touch per-request stats or the
  /// monotonic serve.* registry metrics.
  void reset_counters() { counters_.reset(); }

  std::size_t queue_depth() const { return scheduler_.depth(); }
  std::size_t active_requests() const {
    return active_.size() + prefilling_.size();
  }

  /// K/V bytes actually resident for unfinished requests: distinct pool
  /// blocks mapped by live requests (a block shared by several requests
  /// counts ONCE) plus host-side swap copies of preempted requests; queued
  /// requests hold no blocks.
  std::size_t resident_cache_bytes() const;

  /// The engine's KV block pool; never null.
  const KvBlockPool* kv_pool() const { return &kv_pool_; }

 private:
  struct Request;
  struct PrefixEntry;

  /// submit()'s checks and bookkeeping; returns the queued request.
  Request& enqueue(std::span<const int> prompt, const GenerateOptions& options,
                   const ServeSubmitOptions& sched);

  void admit_and_prefill();
  bool begin_admission(Request& req);
  std::size_t run_prefill_chunk(Request& req);
  /// Execution config of a request's forwards, prefill and decode alike:
  /// its own knobs, on its own pool or else the engine's.
  ExecConfig exec_for(const GenerateOptions& o) const;
  void finish_prefill(Request& req);
  /// Whether `rows` more rows of `req` fit once every registered prefix is
  /// dropped and every strictly worse-ordered slot-holder evicted.
  bool can_make_room(const Request& req, std::size_t rows) const;
  /// Maps `rows` more rows of `req`, dropping prefixes and evicting as
  /// needed; false, having changed nothing, when can_make_room is false.
  bool reserve_rows_or_evict(Request& req, std::size_t rows);
  void preempt(Request& req);
  /// Drops the least recently used registered prefix whose drop returns a
  /// block to the pool; false when none would.
  bool drop_freeing_prefix_entry();
  void try_adopt_prefix(Request& req);
  void register_prefix(Request& req);
  void decode_step();
  /// Picks the next token from a freshly computed logits row (sampling,
  /// EOS, the rejoin watch, max_new_tokens and max_seq). Returns false when
  /// the request finished (no further forward needed).
  bool consume_logits(Request& req);
  /// A fork's rejoin watch at the token of decode step `step`: true ends
  /// the fork with the recorded result.
  bool rejoins(Request& req, std::size_t step);
  /// Prompt positions the request prefills: its prompt cut to max_seq.
  std::size_t prefill_len(const Request& req) const;
  void finish(Request& req);
  /// What finish and cancel share: end the scope, drop the rows.
  void retire(Request& req);
  void release_slot(Request& req);
  static void erase_ptr(std::vector<Request*>& list, Request* req);
  void update_kv_gauges();
  Request& get(RequestId id);
  const Request& get(RequestId id) const;

  /// serve.* metric handles; inert when metrics are disabled.
  struct Metrics {
    Counter submitted;
    Counter completed;
    Counter rejected;
    Counter cancelled;
    Counter preemptions;
    Counter generated_tokens;
    Counter prefill_positions;
    Counter shared_prefix_rows;
    Counter decode_steps;
    Counter decode_rows;
    HistogramMetric queue_wait_ms;
    HistogramMetric prefill_ms;
    HistogramMetric decode_step_ms;
    HistogramMetric request_decode_ms;
    HistogramMetric ttft_ms;
    HistogramMetric token_gap_ms;
    Gauge batch_occupancy;
    Gauge kv_blocks_used;
    Gauge kv_blocks_free;
    Gauge kv_bytes_resident;
  };

  const TransformerLM& model_;
  ServeOptions options_;
  Metrics metrics_;
  KvBlockPool kv_pool_;  ///< every request's KV rows
  Workspace ws_;
  std::unordered_map<RequestId, std::unique_ptr<Request>> requests_;
  Scheduler scheduler_;              ///< queued requests (policy order)
  std::vector<Request*> prefilling_; ///< admitted, prompt not fully run
  std::vector<Request*> active_;     ///< decoding, in admission order
  std::vector<bool> slot_in_use_;    ///< batch-slot occupancy (index = slot)
  /// Registered shareable prefixes: digest -> entry holding block refs.
  std::unordered_map<std::uint64_t, PrefixEntry> prefix_cache_;
  std::uint64_t prefix_clock_ = 0;   ///< LRU clock for prefix_cache_
  ServeCounters counters_;
  RequestId next_id_ = 1;
  std::uint64_t next_seq_ = 1;
};

}  // namespace ft2
