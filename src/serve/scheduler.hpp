// SLO-aware admission scheduler for the serve engine.
//
// The ServeEngine of PR 2 admitted FIFO and ran each request's whole
// prefill at admission — a long prompt stalled every decoding request, and
// dense max_seq KvCaches meant memory, not compute, capped concurrency.
// This scheduler supplies the policy for production serving:
//
//  * priority + deadline admission — the queue drains highest priority
//    first, earliest TTFT deadline next, submission order last;
//  * chunked prefill — prefill advances in the request's own
//    prefill_chunk-sized chunks, at most prefill_chunk_budget prompt
//    positions per engine step, interleaved with decode steps so decode
//    latency stays flat under long prompts (chunk boundaries are exactly
//    the ones a solo generate would use, so hook traffic is unchanged);
//  * backpressure — submissions beyond max_queue_depth are rejected with a
//    typed ft2::Error instead of growing the queue without bound;
//  * preemption — when the paged KV pool runs dry, the lowest-priority
//    slot-holder is evicted back to the queue: its K/V rows move to a
//    compact host copy and are restored verbatim on re-admission, so hook
//    traffic and tokens stay bit-identical;
//  * cancellation and per-token streaming callbacks.
//
// The Scheduler owns ordering decisions only; the ServeEngine owns
// execution (caches, forwards, slots) and consults it. Policy is
// deterministic: ties always break on the monotonically increasing
// submission sequence number.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace ft2 {

using RequestId = std::uint64_t;

/// How the engine frees paged-KV blocks under pool pressure. Swap is the
/// only mechanism: copy the victim's K/V rows out to host memory and
/// restore them verbatim on re-admission.
enum class PreemptMode {
  kSwap,
};

/// Per-request scheduling options, alongside GenerateOptions.
struct ServeSubmitOptions {
  /// Higher priority admits first and is preempted last. Equal priorities
  /// fall back to deadline, then submission order.
  int priority = 0;
  /// TTFT deadline in milliseconds after submit (admission tie-break:
  /// earliest deadline first). Infinity = no deadline.
  double deadline_ms = std::numeric_limits<double>::infinity();
  /// Streaming callback: fired once per generated token, in order, with
  /// the token's index in the final stream (0 = first token, emitted the
  /// moment prefill completes). Runs on the engine's driver thread.
  std::function<void(RequestId id, std::size_t index, int token)> on_token;
};

/// One schedulable request as the policy sees it.
struct SchedEntry {
  RequestId id = 0;
  int priority = 0;
  double deadline_ms = std::numeric_limits<double>::infinity();
  std::uint64_t seq = 0;  ///< submission sequence number (FIFO tie-break)
};

/// Deterministic admission/eviction policy over a queue of SchedEntry.
class Scheduler {
 public:
  /// True when `a` should be admitted before `b`.
  static bool admit_before(const SchedEntry& a, const SchedEntry& b);

  /// True when `a` is a better eviction victim than `b` (lower priority
  /// first, later deadline next, youngest submission last — the mirror of
  /// admission order, so a preempted request re-admits exactly where
  /// admission policy puts it).
  static bool evict_before(const SchedEntry& a, const SchedEntry& b);

  void enqueue(const SchedEntry& entry) { queue_.push_back(entry); }

  /// Removes a queued request (cancellation). False when not queued.
  bool erase(RequestId id);

  /// Pops the best admission candidate, or nullopt when empty.
  std::optional<SchedEntry> pop();

  /// Best admission candidate without removing it.
  const SchedEntry* peek() const;

  std::size_t depth() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  /// Picks the eviction victim among `candidates` (slot-holders the engine
  /// may preempt), or nullopt when none qualifies. When `limit` is set,
  /// only candidates STRICTLY worse-ordered than `limit` qualify — an
  /// admission-driven preemption must not evict someone the queue head
  /// would not outrank, or admission and eviction would cycle.
  static std::optional<SchedEntry> pick_victim(
      std::span<const SchedEntry> candidates,
      const SchedEntry* limit = nullptr);

 private:
  std::vector<SchedEntry> queue_;  ///< unordered; selection scans (small N)
};

}  // namespace ft2
