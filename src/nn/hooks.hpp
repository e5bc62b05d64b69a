// Output-hook mechanism (the C++ analogue of PyTorch forward hooks).
//
// During inference, every observable layer output — already quantized onto
// the FP16 grid — is passed through the registered hook chain. Hooks may
// read (profilers) or mutate (fault injectors, protection schemes) the
// values. Hooks run in registration order; the fault-injection campaign
// registers the injector before the protection scheme so protection sees
// the corrupted values, exactly like hardware faults preceding a software
// check.
//
// Since the blocked-prefill engine, one dispatch may carry a whole CHUNK of
// sequence positions: `values` is then a row-major [n_positions x width]
// view and HookContext describes the position range. Rows appear in
// increasing position order, and the engine dispatches chunk sites in
// execution order, so iterating rows inside a hook observes exactly the
// per-site value sequence the sequential engine produced.
//
// Registration is scoped: HookChain::add returns a HookRegistration handle
// that unregisters the hook when destroyed, so a hook object can never
// dangle inside a chain that outlives it (and a registration can never
// corrupt a chain that has already been destroyed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "nn/layer_kind.hpp"

namespace ft2 {

/// Context describing one hook invocation: which site produced the output
/// and which sequence-position range (positions index prompt tokens 0..P-1
/// followed by generated tokens P..). `n_positions == 1` for the sequential
/// engine and incremental decode; the blocked prefill dispatches whole
/// chunks with `n_positions > 1` and `row_stride` elements between
/// consecutive rows of `values`.
struct HookContext {
  LayerSite site;
  std::size_t position = 0;        ///< first sequence position of the span
  bool first_token_phase = false;  ///< true while generating the first token
  std::size_t n_positions = 1;     ///< rows in the span
  std::size_t row_stride = 0;      ///< elements between rows; 0 = whole span

  /// Row width given the dispatched span (row_stride, or the span size for
  /// single-position dispatches constructed without an explicit stride).
  std::size_t width(std::size_t values_size) const {
    return row_stride != 0 ? row_stride : values_size;
  }

  /// Row `r` (position `position + r`) of a dispatched span.
  std::span<float> row(std::span<float> values, std::size_t r) const {
    const std::size_t w = width(values.size());
    return values.subspan(r * w, w);
  }
  std::span<const float> row(std::span<const float> values,
                             std::size_t r) const {
    const std::size_t w = width(values.size());
    return values.subspan(r * w, w);
  }

  std::size_t position_at(std::size_t r) const { return position + r; }

  /// True when sequence position `p` falls inside this span.
  bool contains_position(std::size_t p) const {
    return p >= position && p < position + n_positions;
  }
};

class OutputHook {
 public:
  virtual ~OutputHook() = default;

  /// Called after the layer output for a position span has been computed
  /// and quantized. `values` is the [ctx.n_positions x width] row-major
  /// output view; hooks may mutate it in place. Position-agnostic hooks can
  /// treat `values` as one flat array (rows are contiguous and ordered);
  /// position-sensitive hooks use ctx.row()/ctx.position_at(). This is
  /// the only path a hook's work takes: the engine runs no hook work of its
  /// own, so each hook sees exactly what the hooks before it left.
  virtual void on_output(const HookContext& ctx, std::span<float> values) = 0;

  /// Called once when a generation run starts / ends (lets schemes reset
  /// per-inference state such as online bounds).
  virtual void on_generation_begin() {}
  virtual void on_generation_end() {}
};

namespace detail {
struct HookChainState {
  std::vector<std::pair<std::uint64_t, OutputHook*>> entries;
  std::uint64_t next_id = 1;
};
}  // namespace detail

/// Move-only RAII handle for one hook registration. Destroying (or
/// releasing) it removes the hook from the chain; if the chain died first,
/// release is a no-op. Keep it alive exactly as long as the hook should
/// observe the session.
class HookRegistration {
 public:
  HookRegistration() = default;
  HookRegistration(HookRegistration&& other) noexcept
      : state_(std::move(other.state_)), id_(other.id_) {
    other.id_ = 0;
  }
  HookRegistration& operator=(HookRegistration&& other) noexcept {
    if (this != &other) {
      release();
      state_ = std::move(other.state_);
      id_ = other.id_;
      other.id_ = 0;
    }
    return *this;
  }
  HookRegistration(const HookRegistration&) = delete;
  HookRegistration& operator=(const HookRegistration&) = delete;
  ~HookRegistration() { release(); }

  /// True while the hook is still registered on a live chain.
  bool active() const {
    if (id_ == 0) return false;
    const auto state = state_.lock();
    if (!state) return false;
    for (const auto& [id, hook] : state->entries) {
      if (id == id_) return true;
    }
    return false;
  }

  /// Unregisters now (idempotent; safe after the chain is gone).
  void release() {
    if (id_ == 0) return;
    if (const auto state = state_.lock()) {
      auto& entries = state->entries;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].first == id_) {
          entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    state_.reset();
    id_ = 0;
  }

 private:
  friend class HookChain;
  HookRegistration(std::weak_ptr<detail::HookChainState> state,
                   std::uint64_t id)
      : state_(std::move(state)), id_(id) {}

  std::weak_ptr<detail::HookChainState> state_;
  std::uint64_t id_ = 0;
};

/// Ordered, non-owning hook chain with scoped registration.
class HookChain {
 public:
  HookChain() : state_(std::make_shared<detail::HookChainState>()) {}

  /// Registers `hook` at the end of the chain. The hook stays registered
  /// only while the returned handle lives — hold on to it.
  [[nodiscard]] HookRegistration add(OutputHook& hook) {
    const std::uint64_t id = state_->next_id++;
    state_->entries.emplace_back(id, &hook);
    return HookRegistration(state_, id);
  }

  void clear() { state_->entries.clear(); }
  bool empty() const { return state_->entries.empty(); }
  std::size_t size() const { return state_->entries.size(); }

  void begin() const {
    for (const auto& [id, h] : state_->entries) h->on_generation_begin();
  }
  void end() const {
    for (const auto& [id, h] : state_->entries) h->on_generation_end();
  }
  void dispatch(const HookContext& ctx, std::span<float> values) const {
    for (const auto& [id, h] : state_->entries) h->on_output(ctx, values);
  }

 private:
  std::shared_ptr<detail::HookChainState> state_;
};

/// RAII generation bracket: fires on_generation_begin on construction and
/// on_generation_end exactly once on destruction (or an explicit end()).
/// The serve engine holds a scope per request from first admission to
/// completion (a solo InferenceSession call is a one-request engine), so
/// hooks see the same begin/end traffic whether a request runs solo or
/// batched.
class GenerationScope {
 public:
  GenerationScope() = default;
  explicit GenerationScope(const HookChain& chain) : chain_(&chain) {
    chain_->begin();
  }
  GenerationScope(GenerationScope&& other) noexcept : chain_(other.chain_) {
    other.chain_ = nullptr;
  }
  GenerationScope& operator=(GenerationScope&& other) noexcept {
    if (this != &other) {
      end();
      chain_ = other.chain_;
      other.chain_ = nullptr;
    }
    return *this;
  }
  GenerationScope(const GenerationScope&) = delete;
  GenerationScope& operator=(const GenerationScope&) = delete;
  ~GenerationScope() { end(); }

  /// Fires on_generation_end now (idempotent).
  void end() {
    if (chain_ != nullptr) {
      chain_->end();
      chain_ = nullptr;
    }
  }

  bool active() const { return chain_ != nullptr; }

 private:
  const HookChain* chain_ = nullptr;
};

}  // namespace ft2
