#include "serve/serve_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace ft2 {

namespace {
using Clock = std::chrono::steady_clock;
using BlockId = KvCache::BlockId;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// FNV-1a over a token sequence plus the exec-config bits that change K/V
/// content. Collisions are harmless: lookups verify the exact tokens.
std::uint64_t prefix_digest(std::span<const int> tokens, bool fp16,
                            bool chunked_accum) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const int t : tokens) mix(static_cast<std::uint64_t>(t) + 1);
  mix(fp16 ? 2 : 3);
  mix(chunked_accum ? 5 : 7);
  return h;
}

/// Validates the engine knobs and resolves kv_pool_blocks = 0 to one full
/// max_seq sequence per batch slot, so that default never preempts.
ServeOptions resolve_pool_size(const ModelConfig& cfg, ServeOptions o) {
  FT2_CHECK_MSG(o.max_batch >= 1, "max_batch must be at least 1");
  FT2_CHECK_MSG(o.kv_block_rows >= 1, "kv_block_rows must be >= 1");
  const std::size_t per_seq =
      (cfg.max_seq + o.kv_block_rows - 1) / o.kv_block_rows;
  if (o.kv_pool_blocks == 0) o.kv_pool_blocks = o.max_batch * per_seq;
  FT2_CHECK_MSG(o.kv_pool_blocks >= per_seq,
                "kv_pool_blocks " << o.kv_pool_blocks
                                  << " cannot hold one max_seq sequence ("
                                  << per_seq << " blocks)");
  return o;
}

/// A session engine's knobs: one slot, its KV rows in one block of max_seq
/// rows (a standalone cache's layout).
ServeOptions solo_options(const ModelConfig& cfg) {
  ServeOptions o;
  o.max_batch = 1;
  o.kv_block_rows = cfg.max_seq;
  return o;
}
}  // namespace

/// One in-flight generation. Everything a generation owns lives here per
/// request — cache, hook chain, sampler, logits — so batching introduces
/// no shared mutable state between sequences.
struct ServeEngine::Request {
  enum class Phase { kQueued, kPrefilling, kDecoding, kDone };

  Request(RequestId id_in, const TransformerLM& model,
          std::span<const int> prompt_in, const GenerateOptions& options_in,
          KvCache cache_in)
      : id(id_in),
        prompt(prompt_in.begin(), prompt_in.end()),
        options(options_in),
        cache(std::move(cache_in)),
        logits(model.config().vocab_size),
        sampler(options_in.sample_seed),
        submit_time(Clock::now()) {}

  RequestId id;
  std::vector<int> prompt;
  GenerateOptions options;
  HookChain hooks;
  KvCache cache;
  std::vector<float> logits;
  Xoshiro256 sampler;
  GenerationScope scope;  ///< armed at first admission, ended at retire
  SchedEntry sched;       ///< scheduling identity (priority/deadline/seq)
  std::function<void(RequestId, std::size_t, int)> on_token;
  Phase phase = Phase::kQueued;
  std::size_t slot = 0;          ///< batch slot held while slotted
  std::size_t pos = 0;           ///< next forward position (= cache length)
  std::size_t next_prefill = 0;  ///< prompt positions fed so far
  std::size_t steps = 0;         ///< decode loop index (tokens sampled)
  /// Rows [0, pos) to restore at the next admission: a swap-preempted
  /// request's compact host copy, or the snapshot cache a fork shares.
  std::shared_ptr<const KvCache> swapped;
  /// submit_recorded: the snapshot filled at finish, and its callback.
  SessionSnapshot* record = nullptr;
  std::function<void(std::size_t)> on_boundary;
  /// submit_fork: the snapshot forked from and its callbacks. `on_record`
  /// is the rejoin watch: still bit-identical to the recording.
  const SessionSnapshot* fork = nullptr;
  std::function<void()> on_resume;
  std::function<bool(std::size_t)> rejoin;
  bool on_record = false;
  bool rejoined = false;
  GenerateResult result;
  RequestStats stats;
  Clock::time_point submit_time;
  Clock::time_point admit_time;
  Clock::time_point last_token_time;
};

/// One registered shareable prompt prefix: the engine holds a reference on
/// every block so the K/V rows survive the producing request.
struct ServeEngine::PrefixEntry {
  std::vector<int> tokens;  ///< exact prompt prefix (collision check)
  std::vector<BlockId> blocks;
  bool fp16 = true;
  bool chunked_accum = false;
  std::uint64_t last_use = 0;  ///< prefix_clock_ stamp for LRU
};

void ServeEngine::erase_ptr(std::vector<Request*>& list, Request* req) {
  list.erase(std::remove(list.begin(), list.end(), req), list.end());
}

ServeEngine::ServeEngine(const TransformerLM& model, ServeOptions options)
    : model_(model),
      options_(resolve_pool_size(model.config(), options)),
      kv_pool_(model.config().n_blocks, model.config().d_model,
               options_.kv_pool_blocks, options_.kv_block_rows),
      ws_(model.config(), options_.max_batch) {
  if (MetricsRegistry* reg = options_.obs.metrics; reg != nullptr) {
    metrics_.submitted = reg->counter("serve.requests.submitted");
    metrics_.completed = reg->counter("serve.requests.completed");
    metrics_.rejected = reg->counter("serve.rejected");
    metrics_.cancelled = reg->counter("serve.cancelled");
    metrics_.preemptions = reg->counter("serve.preemptions");
    metrics_.generated_tokens = reg->counter("serve.tokens.generated");
    metrics_.prefill_positions = reg->counter("serve.prefill.positions");
    metrics_.shared_prefix_rows = reg->counter("serve.prefix.shared_rows");
    metrics_.decode_steps = reg->counter("serve.decode.steps");
    metrics_.decode_rows = reg->counter("serve.decode.rows");
    metrics_.queue_wait_ms =
        reg->histogram("serve.queue.wait_ms", latency_ms_buckets());
    metrics_.prefill_ms =
        reg->histogram("serve.prefill.latency_ms", latency_ms_buckets());
    metrics_.decode_step_ms =
        reg->histogram("serve.decode.step_ms", latency_ms_buckets());
    metrics_.request_decode_ms =
        reg->histogram("serve.request.decode_ms", latency_ms_buckets());
    metrics_.ttft_ms =
        reg->histogram("serve.request.ttft_ms", latency_ms_buckets());
    metrics_.token_gap_ms =
        reg->histogram("serve.token.gap_ms", latency_ms_buckets());
    metrics_.batch_occupancy = reg->gauge("serve.batch.occupancy");
    metrics_.kv_blocks_used = reg->gauge("serve.kv.blocks_used");
    metrics_.kv_blocks_free = reg->gauge("serve.kv.blocks_free");
    metrics_.kv_bytes_resident = reg->gauge("serve.kv.bytes_resident");
    // Which GEMM dispatch tier this engine runs on (0=sse 1=avx2);
    // tiers are bit-exact, so this only matters for performance triage.
    reg->gauge("serve.kernel_tier")
        .set(static_cast<double>(static_cast<int>(active_kernel_tier())));
  }
  update_kv_gauges();
}

ServeEngine::~ServeEngine() = default;

RequestId ServeEngine::submit(std::span<const int> prompt,
                              const GenerateOptions& options,
                              const ServeSubmitOptions& sched) {
  return enqueue(prompt, options, sched).id;
}

RequestId ServeEngine::submit_recorded(
    std::span<const int> prompt, const GenerateOptions& options,
    SessionSnapshot& snap, std::function<void(std::size_t)> on_boundary) {
  Request& req = enqueue(prompt, options, {});
  snap = SessionSnapshot{};
  req.record = &snap;
  req.on_boundary = std::move(on_boundary);
  return req.id;
}

RequestId ServeEngine::submit_fork(const SessionSnapshot& snap,
                                   std::size_t pos,
                                   std::function<void()> on_resume,
                                   std::function<bool(std::size_t)> rejoin) {
  FT2_CHECK(snap.valid());
  FT2_CHECK_MSG(pos >= snap.prompt_len && pos <= snap.last_boundary(),
                "fork position " << pos << " outside [" << snap.prompt_len
                                 << ", " << snap.last_boundary() << "]");
  Request& req = enqueue(snap.prompt, snap.options, {});
  // The recorded request as it stood at `pos`, swapped out: its prompt
  // prefilled, tokens 0..s sampled, the forward of token s pending, and
  // rows [0, pos) to restore from the snapshot, which stays shared.
  const std::size_t s = pos - snap.prompt_len;
  req.result.tokens.assign(
      snap.result.tokens.begin(),
      snap.result.tokens.begin() + static_cast<std::ptrdiff_t>(s + 1));
  req.result.positions_run = pos;
  // The recording ran a forward at every position below its positions_run;
  // one that ended at `pos` stopped there at its generation limit.
  req.result.hit_max = pos == snap.result.positions_run;
  req.pos = pos;
  req.next_prefill = snap.prompt_len;
  req.steps = s + 1;
  req.sampler.set_state(snap.rng_at[s]);
  req.swapped = snap.cache;
  req.fork = &snap;
  req.on_resume = std::move(on_resume);
  req.rejoin = std::move(rejoin);
  req.on_record = static_cast<bool>(req.rejoin);
  return req.id;
}

void ServeEngine::release(RequestId id) {
  FT2_CHECK_MSG(finished(id), "request " << id << " has not finished");
  requests_.erase(id);
}

ServeEngine::Request& ServeEngine::enqueue(std::span<const int> prompt,
                                           const GenerateOptions& options,
                                           const ServeSubmitOptions& sched) {
  FT2_CHECK_MSG(!prompt.empty(), "empty prompt");
  if (options_.max_queue_depth > 0 &&
      scheduler_.depth() >= options_.max_queue_depth) {
    ++counters_.rejected;
    metrics_.rejected.inc();
    FT2_CHECK_MSG(false, "serve queue full: max_queue_depth "
                             << options_.max_queue_depth << " reached");
  }
  const RequestId id = next_id_++;
  auto [it, inserted] = requests_.emplace(
      id, std::make_unique<Request>(
              id, model_, prompt, options,
              KvCache::paged(kv_pool_, model_.config().max_seq)));
  Request& req = *it->second;
  req.sched = SchedEntry{id, sched.priority, sched.deadline_ms, next_seq_++};
  req.on_token = sched.on_token;
  scheduler_.enqueue(req.sched);
  ++counters_.submitted;
  metrics_.submitted.inc();
  counters_.max_queue_depth =
      std::max(counters_.max_queue_depth, scheduler_.depth());
  return req;
}

HookChain& ServeEngine::hooks(RequestId id) { return get(id).hooks; }

ServeEngine::Request& ServeEngine::get(RequestId id) {
  const auto it = requests_.find(id);
  FT2_CHECK_MSG(it != requests_.end(), "unknown request id " << id);
  return *it->second;
}

const ServeEngine::Request& ServeEngine::get(RequestId id) const {
  const auto it = requests_.find(id);
  FT2_CHECK_MSG(it != requests_.end(), "unknown request id " << id);
  return *it->second;
}

bool ServeEngine::finished(RequestId id) const {
  return get(id).phase == Request::Phase::kDone;
}

const GenerateResult& ServeEngine::result(RequestId id) const {
  FT2_CHECK_MSG(finished(id), "request " << id << " has not finished");
  return get(id).result;
}

const RequestStats& ServeEngine::request_stats(RequestId id) const {
  return get(id).stats;
}

std::size_t ServeEngine::resident_cache_bytes() const {
  // Distinct pool blocks mapped by unfinished requests: a block shared by
  // several requests (copy-on-write prefix sharing) counts once.
  std::vector<char> seen(kv_pool_.total_blocks(), 0);
  std::size_t distinct = 0;
  std::size_t total = 0;
  for (const auto& [id, req] : requests_) {
    if (req->phase == Request::Phase::kDone) continue;
    for (const BlockId b : req->cache.block_table()) {
      if (!seen[b]) {
        seen[b] = 1;
        ++distinct;
      }
    }
    // A queued fork's rows are the snapshot's, which the engine does not own.
    const bool own_copy =
        req->fork == nullptr || req->swapped != req->fork->cache;
    if (req->swapped != nullptr && own_copy) {
      total += req->swapped->memory_bytes();
    }
  }
  return total + distinct * kv_pool_.block_bytes();
}

void ServeEngine::update_kv_gauges() {
  metrics_.kv_blocks_used.set(static_cast<double>(kv_pool_.used_blocks()));
  metrics_.kv_blocks_free.set(static_cast<double>(kv_pool_.free_blocks()));
  metrics_.kv_bytes_resident.set(
      static_cast<double>(kv_pool_.used_blocks() * kv_pool_.block_bytes()));
}

bool ServeEngine::consume_logits(Request& req) {
  // Iteration `step` of the per-token rule, with the next forward at
  // req.pos. The sampler draws the same RNG stream a solo generate would
  // (batching never touches it). Greedy by default; on NaN-poisoned logits
  // argmax picks the first index, which is deterministic (faithful
  // "garbage token" behaviour).
  const GenerateOptions& o = req.options;
  const std::size_t step = req.steps++;
  const std::span<const float> logits{req.logits.data(), req.logits.size()};
  const int next =
      o.temperature > 0.0f
          ? sample_from_logits(logits, o.temperature, o.top_k, req.sampler)
          : static_cast<int>(argmax(logits));
  if (o.eos_token >= 0 && next == o.eos_token) return false;  // not emitted
  req.result.tokens.push_back(next);
  const Clock::time_point now = Clock::now();
  if (step == 0) {
    req.stats.ttft_ms = ms_between(req.submit_time, now);
    metrics_.ttft_ms.observe(req.stats.ttft_ms);
  } else {
    metrics_.token_gap_ms.observe(ms_between(req.last_token_time, now));
  }
  req.last_token_time = now;
  if (req.on_token) req.on_token(req.id, step, next);
  if (req.record != nullptr) req.record->rng_at.push_back(req.sampler.state());
  if (req.on_record && rejoins(req, step)) return false;
  req.result.hit_max =
      step + 1 == o.max_new_tokens || req.pos >= model_.config().max_seq;
  return !req.result.hit_max;
}

bool ServeEngine::rejoins(Request& req, std::size_t step) {
  // Still on the recording while every forward since the fork stored the
  // recorded K/V row (decode_step checks each) and every token since is the
  // recorded one, drawn from the same sampler state (a NaN-poisoned draw
  // falls back without consuming the RNG). Once off, never back on: a
  // differing row is never rewritten.
  const GenerateResult& recorded = req.fork->result;
  req.on_record = step < recorded.tokens.size() &&
                  req.result.tokens.back() == recorded.tokens[step] &&
                  req.sampler.state() == req.fork->rng_at[step];
  // Rejoin only where the recording still has forwards to skip.
  req.rejoined = req.on_record && step + 1 < recorded.tokens.size() &&
                 req.rejoin(step);
  return req.rejoined;
}

std::size_t ServeEngine::prefill_len(const Request& req) const {
  return std::min(req.prompt.size(), model_.config().max_seq);
}

void ServeEngine::release_slot(Request& req) {
  if (req.slot < slot_in_use_.size()) slot_in_use_[req.slot] = false;
}

void ServeEngine::retire(Request& req) {
  req.scope.end();
  req.phase = Request::Phase::kDone;
  req.stats.generated_tokens = req.result.tokens.size();
  // Registered prefixes hold their own block references, so dropping this
  // request's mappings never invalidates a shared prefix.
  req.cache.release_storage();
  req.swapped.reset();
}

void ServeEngine::finish(Request& req) {
  release_slot(req);
  // A rejoined fork ends with what running on would produce.
  if (req.rejoined) req.result = req.fork->result;
  if (req.record != nullptr) {
    SessionSnapshot& snap = *req.record;
    snap.prompt = req.prompt;
    snap.prompt_len = prefill_len(req);
    snap.options = req.options;
    snap.result = req.result;
    // Only the rows the run stored: no max_seq slack travels along.
    snap.cache = std::make_shared<const KvCache>(
        req.cache.prefix_copy(req.cache.length()));
  }
  req.stats.decode_ms = ms_between(req.admit_time, Clock::now());
  ++counters_.completed;
  counters_.generated_tokens += req.result.tokens.size();
  metrics_.completed.inc();
  metrics_.generated_tokens.inc(req.result.tokens.size());
  metrics_.request_decode_ms.observe(req.stats.decode_ms);
  retire(req);
}

bool ServeEngine::cancel(RequestId id) {
  Request& req = get(id);
  if (req.phase == Request::Phase::kDone) return false;
  if (req.phase == Request::Phase::kQueued) {
    scheduler_.erase(id);
  } else {
    erase_ptr(prefilling_, &req);
    erase_ptr(active_, &req);
    release_slot(req);
  }
  req.result.cancelled = true;
  retire(req);
  ++counters_.cancelled;
  metrics_.cancelled.inc();
  update_kv_gauges();
  return true;
}

bool ServeEngine::drop_freeing_prefix_entry() {
  const auto frees = [&](const PrefixEntry& e) {
    return std::any_of(e.blocks.begin(), e.blocks.end(),
                       [&](BlockId b) { return kv_pool_.ref_count(b) == 1; });
  };
  auto victim = prefix_cache_.end();
  for (auto it = prefix_cache_.begin(); it != prefix_cache_.end(); ++it) {
    if (frees(it->second) && (victim == prefix_cache_.end() ||
                              it->second.last_use < victim->second.last_use)) {
      victim = it;
    }
  }
  if (victim == prefix_cache_.end()) return false;
  for (const BlockId b : victim->second.blocks) kv_pool_.release(b);
  prefix_cache_.erase(victim);
  return true;
}

void ServeEngine::try_adopt_prefix(Request& req) {
  // Shared positions skip their hook dispatches along with their compute,
  // so only hook-free requests may adopt (see the bit-exactness contract).
  if (!options_.share_prefix || !req.hooks.empty()) return;
  const std::size_t bs = kv_pool_.block_rows();
  const std::size_t P = prefill_len(req);
  if (P < 2) return;
  // Longest full-block prefix that still leaves the last prompt position to
  // compute (the final chunk must produce the first-token logits).
  for (std::size_t nb = (P - 1) / bs; nb >= 1; --nb) {
    const std::size_t rows = nb * bs;
    const std::span<const int> want{req.prompt.data(), rows};
    const std::uint64_t digest =
        prefix_digest(want, req.options.fp16, req.options.chunked_accum);
    const auto it = prefix_cache_.find(digest);
    if (it == prefix_cache_.end()) continue;
    const PrefixEntry& e = it->second;
    if (e.fp16 != req.options.fp16 ||
        e.chunked_accum != req.options.chunked_accum ||
        e.blocks.size() != nb || e.tokens.size() != rows ||
        !std::equal(e.tokens.begin(), e.tokens.end(), want.begin())) {
      continue;
    }
    req.cache.adopt_shared_prefix(e.blocks, rows);
    req.next_prefill = rows;
    req.pos = rows;
    req.stats.shared_prefix_rows = rows;
    counters_.shared_prefix_rows += rows;
    metrics_.shared_prefix_rows.inc(rows);
    it->second.last_use = ++prefix_clock_;
    return;
  }
}

void ServeEngine::register_prefix(Request& req) {
  if (!options_.share_prefix || !req.hooks.empty()) return;
  const std::size_t bs = kv_pool_.block_rows();
  const std::size_t P = prefill_len(req);
  if (P < 2) return;
  const std::size_t nb = (P - 1) / bs;
  if (nb == 0) return;
  const std::size_t rows = nb * bs;
  const std::span<const int> tokens{req.prompt.data(), rows};
  const std::uint64_t digest =
      prefix_digest(tokens, req.options.fp16, req.options.chunked_accum);
  const auto it = prefix_cache_.find(digest);
  if (it != prefix_cache_.end()) {
    it->second.last_use = ++prefix_clock_;
    return;
  }
  // No two entries end in the same block: a block sits at one table index,
  // and a request whose prefix ends in a block it adopted shares that
  // entry's digest, so it refreshed the entry above or the entry is gone.
  // Each entry holds a reference on its last block, so the registry never
  // outgrows the pool, and pool pressure (reserve_rows_or_evict) is its
  // only cap, least recently used first.
  FT2_ASSERT(prefix_cache_.size() < kv_pool_.total_blocks());
  PrefixEntry entry;
  entry.tokens.assign(tokens.begin(), tokens.end());
  entry.blocks.assign(req.cache.block_table().begin(),
                      req.cache.block_table().begin() +
                          static_cast<std::ptrdiff_t>(nb));
  for (const BlockId b : entry.blocks) kv_pool_.add_ref(b);
  entry.fp16 = req.options.fp16;
  entry.chunked_accum = req.options.chunked_accum;
  entry.last_use = ++prefix_clock_;
  prefix_cache_.emplace(digest, std::move(entry));
}

void ServeEngine::preempt(Request& req) {
  if (req.phase == Request::Phase::kPrefilling) erase_ptr(prefilling_, &req);
  if (req.phase == Request::Phase::kDecoding) erase_ptr(active_, &req);
  release_slot(req);
  req.phase = Request::Phase::kQueued;
  if (req.cache.length() > 0) {
    // Compact host copy of every live row; restored verbatim on resume, so
    // hooks (and the still-armed GenerationScope) never observe the
    // eviction.
    req.swapped = std::make_shared<const KvCache>(
        req.cache.prefix_copy(req.cache.length()));
  }
  req.cache.release_storage();
  scheduler_.enqueue(req.sched);
  ++req.stats.preemptions;
  ++counters_.preemptions;
  metrics_.preemptions.inc();
}

bool ServeEngine::can_make_room(const Request& req, std::size_t rows) const {
  std::size_t freeable = kv_pool_.free_blocks();
  const std::size_t need = req.cache.blocks_to_reserve(rows);
  if (need <= freeable) return true;
  // Add the blocks every reference of which is held by a registered prefix
  // or a strictly worse-ordered slot-holder.
  std::vector<std::uint32_t> droppable(kv_pool_.total_blocks(), 0);
  const auto count = [&](std::span<const BlockId> blocks) {
    for (const BlockId b : blocks) ++droppable[b];
  };
  for (const auto& [digest, entry] : prefix_cache_) count(entry.blocks);
  for (const auto* list : {&prefilling_, &active_}) {
    for (const Request* r : *list) {
      if (Scheduler::admit_before(req.sched, r->sched)) {
        count(r->cache.block_table());
      }
    }
  }
  for (BlockId b = 0; b < droppable.size(); ++b) {
    if (droppable[b] != 0 && droppable[b] == kv_pool_.ref_count(b)) {
      ++freeable;
    }
  }
  return need <= freeable;
}

bool ServeEngine::reserve_rows_or_evict(Request& req, std::size_t rows) {
  // Decide before touching the pool, so a reservation that cannot succeed
  // drops no prefix and evicts no one on its way to failing.
  if (!can_make_room(req, rows)) return false;
  while (!req.cache.reserve_rows(rows)) {
    // Cheapest first: registered prefixes that return a block, least
    // recently used first; then strictly worse-ordered slot-holders.
    // can_make_room counted exactly what the two free together, so one of
    // them is left while the rows do not fit.
    if (drop_freeing_prefix_entry()) continue;
    std::vector<SchedEntry> holders;
    for (const auto* list : {&prefilling_, &active_}) {
      for (const Request* r : *list) holders.push_back(r->sched);
    }
    const std::optional<SchedEntry> victim =
        Scheduler::pick_victim(holders, &req.sched);
    FT2_CHECK(victim.has_value());
    preempt(get(victim->id));
  }
  return true;
}

bool ServeEngine::begin_admission(Request& req) {
  if (req.swapped != nullptr) {
    // Swap resume (a fork's first admission too): restore rows [0, pos)
    // verbatim. No forwards, no hook dispatches, no budget cost — just
    // block mapping plus a row copy. The rows the request runs next are
    // reserved with them: a resume that could not go on stays in the queue
    // as it is, holding no slot and no block, instead of swapping straight
    // back out.
    const std::size_t prompt = prefill_len(req);
    const std::size_t next =
        req.next_prefill < prompt
            ? prefill_chunk_rows(req.options.prefill_chunk, req.next_prefill,
                                 prompt)
            : (req.result.hit_max ? 0 : 1);
    if (!reserve_rows_or_evict(req, req.pos + next)) {
      scheduler_.enqueue(req.sched);
      return false;
    }
    req.cache.append_rows(*req.swapped, req.pos);
    req.swapped.reset();
  }
  // else: a first admission, or a request preempted before any row was
  // stored, which resumes like a fresh prefill continuation (the scope is
  // already armed).

  std::size_t slot = 0;
  while (slot < slot_in_use_.size() && slot_in_use_[slot]) ++slot;
  if (slot == slot_in_use_.size()) {
    slot_in_use_.push_back(true);
  } else {
    slot_in_use_[slot] = true;
  }
  req.slot = slot;
  req.stats.slot = slot;
  req.phase = Request::Phase::kPrefilling;
  prefilling_.push_back(&req);

  if (!req.scope.active()) {  // first admission
    req.admit_time = Clock::now();
    req.stats.queue_ms = ms_between(req.submit_time, req.admit_time);
    req.stats.prompt_tokens = req.prompt.size();
    metrics_.queue_wait_ms.observe(req.stats.queue_ms);
    // on_generation_begin fires exactly once per request, here; preemption
    // and resume never re-arm the scope. A fork restores its hooks' state
    // right after, so the begin reset cannot clobber it.
    req.scope = GenerationScope(req.hooks);
    if (req.fork == nullptr) {
      try_adopt_prefix(req);
    } else if (req.on_resume) {
      req.on_resume();
    }
  }
  return true;
}

std::size_t ServeEngine::run_prefill_chunk(Request& req) {
  // Chunks are cut from position 0 by the request's prefill_chunk alone,
  // so a hooked request sees the same dispatch shapes however the
  // prefill_chunk_budget spreads its chunks across engine steps.
  const std::span<const int> prompt{req.prompt.data(), prefill_len(req)};
  const std::size_t n = prefill_chunk_rows(req.options.prefill_chunk,
                                           req.next_prefill, prompt.size());
  if (!reserve_rows_or_evict(req, n)) {
    preempt(req);  // the worst-ordered holder yields its own slot
    return 0;
  }

  TraceSpan span = trace_span(options_.obs.tracer, "serve.prefill");
  if (span.active()) {
    span.tag("request", std::to_string(req.id))
        .tag("slot", std::to_string(req.slot))
        .tag("prompt_tokens", std::to_string(req.prompt.size()))
        .tag("positions", std::to_string(n));
  }
  // Only the chunk that ends the prompt runs the LM head.
  const std::span<float> logits =
      req.next_prefill + n == prompt.size() ? std::span<float>(req.logits)
                                            : std::span<float>{};
  model_.forward_span(prompt.subspan(req.next_prefill, n), req.next_prefill,
                      req.cache, req.hooks, exec_for(req.options),
                      /*first_token_phase=*/true, ws_, logits);
  req.next_prefill += n;
  req.pos += n;
  req.result.positions_run += n;
  counters_.prefill_positions += n;
  metrics_.prefill_positions.inc(n);
  return n;
}

ExecConfig ServeEngine::exec_for(const GenerateOptions& o) const {
  return ExecConfig{o.fp16, o.chunked_accum,
                    o.pool != nullptr ? o.pool : options_.pool};
}

void ServeEngine::finish_prefill(Request& req) {
  erase_ptr(prefilling_, &req);
  if (req.steps == 0) {
    req.stats.prefill_ms = ms_between(req.admit_time, Clock::now());
    metrics_.prefill_ms.observe(req.stats.prefill_ms);
    register_prefix(req);
    if (req.on_boundary) req.on_boundary(0);
    // max_new_tokens == 0: generate never enters the decode loop — no
    // sampling happens at all.
    if (req.options.max_new_tokens > 0 && consume_logits(req)) {
      req.phase = Request::Phase::kDecoding;
      active_.push_back(&req);
    } else {
      finish(req);
    }
    return;
  }
  // Resume of a preempted decoding request or a fork: the pending token was
  // sampled before, so it goes straight back to the decode batch — unless
  // it was the last (a fork at the recording's limit).
  if (req.result.hit_max) {
    finish(req);
    return;
  }
  req.phase = Request::Phase::kDecoding;
  active_.push_back(&req);
}

void ServeEngine::admit_and_prefill() {
  const std::size_t budget = options_.prefill_chunk_budget;
  std::size_t spent = 0;
  const auto budget_left = [&] { return budget == 0 || spent < budget; };
  while (budget_left()) {
    // Best prefilling request in admission order competes with the queue
    // head: whichever the policy ranks higher gets the next slice.
    Request* best = nullptr;
    for (Request* r : prefilling_) {
      if (best == nullptr || Scheduler::admit_before(r->sched, best->sched)) {
        best = r;
      }
    }
    const SchedEntry* head = scheduler_.peek();
    const bool can_admit =
        head != nullptr &&
        active_.size() + prefilling_.size() < options_.max_batch;
    if (can_admit &&
        (best == nullptr || Scheduler::admit_before(*head, best->sched))) {
      const std::optional<SchedEntry> e = scheduler_.pop();
      Request& req = get(e->id);
      if (!begin_admission(req)) break;  // requeued under pool pressure
      if (req.next_prefill >= prefill_len(req)) {
        finish_prefill(req);  // resumed decoding request: nothing to prefill
      }
      counters_.max_active = std::max(counters_.max_active,
                                      active_.size() + prefilling_.size());
      continue;
    }
    if (best == nullptr) break;
    const std::size_t ran = run_prefill_chunk(*best);
    if (ran == 0) break;  // self-preempted under pool pressure
    spent += ran;
    if (best->phase == Request::Phase::kPrefilling &&
        best->next_prefill >= prefill_len(*best)) {
      finish_prefill(*best);
    }
  }
  counters_.max_active =
      std::max(counters_.max_active, active_.size() + prefilling_.size());
}

void ServeEngine::decode_step() {
  if (active_.empty()) return;

  // Every decoding sequence appends one K/V row this step; reserve them up
  // front so pool pressure resolves through preemption instead of failing
  // mid-forward. Work over ids: preemption edits active_.
  std::vector<RequestId> ids;
  ids.reserve(active_.size());
  for (const Request* req : active_) ids.push_back(req->id);
  for (const RequestId id : ids) {
    Request& req = get(id);
    if (req.phase != Request::Phase::kDecoding) continue;  // evicted above
    if (!reserve_rows_or_evict(req, 1)) preempt(req);
  }
  if (active_.empty()) return;

  metrics_.batch_occupancy.set(static_cast<double>(active_.size()));
  const bool timed = metrics_.decode_step_ms.enabled();
  const Clock::time_point step_start =
      timed ? Clock::now() : Clock::time_point{};
  TraceSpan step_span =
      trace_span(options_.obs.tracer, "serve.decode_step");
  if (step_span.active()) {
    // Parallel CSV lists let the Chrome exporter fan this one span out onto
    // every (request, slot) track it covered.
    std::string requests;
    std::string slots_csv;
    for (const Request* req : active_) {
      if (!requests.empty()) {
        requests += ',';
        slots_csv += ',';
      }
      requests += std::to_string(req->id);
      slots_csv += std::to_string(req->slot);
    }
    step_span.tag("rows", std::to_string(active_.size()))
        .tag("requests", std::move(requests))
        .tag("slots", std::move(slots_csv));
  }

  // Group active requests by execution config; each sub-batch is one
  // forward_batch call. Group order is fixed, so results stay deterministic
  // regardless of submission interleaving.
  std::array<std::vector<Request*>, 4> groups;
  for (Request* req : active_) {
    const std::size_t idx = (req->options.fp16 ? 1u : 0u) |
                            (req->options.chunked_accum ? 2u : 0u);
    groups[idx].push_back(req);
  }

  std::vector<DecodeSlot> slots;
  for (std::size_t idx = 0; idx < groups.size(); ++idx) {
    auto& group = groups[idx];
    if (group.empty()) continue;
    slots.clear();
    for (Request* req : group) {
      slots.push_back(DecodeSlot{req->result.tokens.back(), req->pos,
                                 &req->cache,
                                 &req->hooks,
                                 {req->logits.data(), req->logits.size()}});
    }
    // The group runs on its first request's pool, as prefill does; every
    // request of a group shares the group's fp16 and chunked_accum bits.
    model_.forward_batch(slots, exec_for(group.front()->options), ws_);
    ++counters_.decode_steps;
    counters_.decode_rows += slots.size();
    metrics_.decode_steps.inc();
    metrics_.decode_rows.inc(slots.size());
  }
  if (timed) {
    metrics_.decode_step_ms.observe(ms_between(step_start, Clock::now()));
  }

  // Post-step bookkeeping in admission order: advance positions, sample
  // from the fresh logits, retire finished sequences.
  std::vector<Request*> still_active;
  still_active.reserve(active_.size());
  for (Request* req : active_) {
    ++req->pos;
    ++req->result.positions_run;
    ++req->stats.decode_steps;
    if (req->on_boundary) req->on_boundary(req->steps);
    if (req->on_record) {
      const KvCache& recorded = *req->fork->cache;
      const std::size_t p = req->pos - 1;
      req->on_record =
          p < recorded.length() && req->cache.same_row(recorded, p);
    }
    if (consume_logits(*req)) {
      still_active.push_back(req);
    } else {
      finish(*req);
    }
  }
  active_ = std::move(still_active);
}

std::size_t ServeEngine::step() {
  admit_and_prefill();
  decode_step();
  update_kv_gauges();
  return active_.size() + prefilling_.size();
}

void ServeEngine::run() {
  while (!scheduler_.empty() || !active_.empty() || !prefilling_.empty()) {
    step();
  }
}

InferenceSession::InferenceSession(const TransformerLM& model)
    : engine_(new ServeEngine(model, solo_options(model.config()))) {}

InferenceSession::~InferenceSession() = default;

GenerateResult InferenceSession::generate(std::span<const int> prompt,
                                          const GenerateOptions& options) {
  return run(engine_->submit(prompt, options));
}

GenerateResult InferenceSession::generate_recorded(
    std::span<const int> prompt, const GenerateOptions& options,
    SessionSnapshot& snap,
    const std::function<void(std::size_t)>& on_boundary) {
  return run(engine_->submit_recorded(prompt, options, snap, on_boundary));
}

GenerateResult InferenceSession::resume_from(
    const SessionSnapshot& snap, std::size_t pos,
    const std::function<void()>& on_resume,
    const std::function<bool(std::size_t)>& rejoin) {
  return run(engine_->submit_fork(snap, pos, on_resume, rejoin));
}

GenerateResult InferenceSession::run(RequestId id) {
  engine_->hooks(id) = hooks_;  // a copy shares the session's entries
  try {
    engine_->run();
  } catch (...) {
    engine_->cancel(id);  // a throwing hook leaves the engine empty
    engine_->release(id);
    throw;
  }
  GenerateResult result = engine_->result(id);
  engine_->release(id);
  return result;
}

}  // namespace ft2
