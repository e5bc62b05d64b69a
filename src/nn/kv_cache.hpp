// Per-block key/value cache for incremental decoding.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "nn/kv_pool.hpp"
#include "tensor/tensor.hpp"

namespace ft2 {

/// Stores keys and values (post-RoPE) for every processed position of every
/// block: per block, [rows, d_model]. The cache is a row store: it copies
/// rows in and out as given and knows nothing of their column layout. The
/// forward engine (nn/model.cpp) stores key rows head-interleaved and
/// value rows head-major (see key() and value()); every copy between
/// caches (append_rows, prefix_copy, copy-on-write) moves rows verbatim.
///
/// Two storage modes, one per consumer:
///  * plain — one owned [max_seq, d_model] tensor pair per block: solo
///    sessions (generation and campaign trials, which fork a snapshot by
///    copying its rows in with append_rows) and compact snapshots
///    (prefix_copy);
///  * paged — rows live in fixed-size ref-counted blocks of a KvBlockPool,
///    resolved through a per-cache block table. Physical memory grows in
///    block-sized steps with the stored length (reserve_rows), blocks can
///    be shared across live caches (adopt_shared_prefix), and a store into
///    a shared block copies it first (copy-on-write). The serve engine's
///    allocator; see nn/kv_pool.hpp.
///
/// Both modes present the same read/append interface, so the attention
/// kernels and forward_batch never see which one they run on: attention
/// walks the cache one contiguous run of rows at a time
/// (contiguous_rows).
class KvCache {
 public:
  using BlockId = KvBlockPool::BlockId;

  KvCache(std::size_t n_blocks, std::size_t max_seq, std::size_t d_model)
      : max_seq_(max_seq), d_model_(d_model) {
    keys_.reserve(n_blocks);
    values_.reserve(n_blocks);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      keys_.emplace_back(Tensor({max_seq, d_model}));
      values_.emplace_back(Tensor({max_seq, d_model}));
    }
  }

  /// Creates a paged cache over `pool`: no physical rows are held until
  /// reserve_rows / adopt_shared_prefix maps blocks. `max_seq` caps the
  /// logical length exactly like the dense constructor.
  static KvCache paged(KvBlockPool& pool, std::size_t max_seq) {
    KvCache out;
    out.pool_ = &pool;
    out.block_rows_ = pool.block_rows();
    out.max_seq_ = max_seq;
    out.d_model_ = pool.d_model();
    return out;
  }

  ~KvCache() { release_storage(); }

  KvCache(KvCache&& other) noexcept { *this = std::move(other); }
  KvCache& operator=(KvCache&& other) noexcept {
    if (this != &other) {
      release_storage();
      max_seq_ = other.max_seq_;
      d_model_ = other.d_model_;
      length_ = other.length_;
      keys_ = std::move(other.keys_);
      values_ = std::move(other.values_);
      pool_ = other.pool_;
      block_rows_ = other.block_rows_;
      table_ = std::move(other.table_);
      other.pool_ = nullptr;
      other.table_.clear();
      other.length_ = 0;
    }
    return *this;
  }

  /// Copying a paged cache maps the same blocks with an extra reference —
  /// both copies read the shared rows, and a store from either side copies
  /// the touched block first (copy-on-write), so copies never alias writes.
  KvCache(const KvCache& other)
      : max_seq_(other.max_seq_),
        d_model_(other.d_model_),
        length_(other.length_),
        keys_(other.keys_),
        values_(other.values_),
        pool_(other.pool_),
        block_rows_(other.block_rows_),
        table_(other.table_) {
    if (pool_ != nullptr) {
      for (const BlockId b : table_) pool_->add_ref(b);
    }
  }
  KvCache& operator=(const KvCache& other) {
    if (this != &other) *this = KvCache(other);
    return *this;
  }

  /// Compact dense copy of the first `n` stored rows of every block
  /// (tensors shaped [n, d_model], not [max_seq, d_model]) — what a
  /// snapshot or a preemption swap-out needs to retain, at a fraction of
  /// the full cache's footprint. Works for plain and paged caches.
  KvCache prefix_copy(std::size_t n) const {
    KvCache out(n_layers(), n, d_model_);
    out.append_rows(*this, n);
    return out;
  }

  /// Appends rows [length(), length() + n) of every block, read from the
  /// same positions of `src`, then advances by `n`: a campaign fork copies
  /// a snapshot's prefix in, a swap-resumed request restores its evicted
  /// rows, prefix_copy fills its compact copy. A paged destination must
  /// already back those rows (reserve_rows); a store into a shared block
  /// copies it first, as any store does.
  void append_rows(const KvCache& src, std::size_t n) {
    FT2_CHECK(src.n_layers() == n_layers() && src.d_model_ == d_model_);
    FT2_CHECK(length_ + n <= src.length_ && length_ + n <= physical_rows());
    const std::size_t layers = n_layers();
    for (std::size_t pos = length_; pos < length_ + n; ++pos) {
      for (std::size_t b = 0; b < layers; ++b) {
        store(b, pos, src.key(b, pos), src.value(b, pos));
      }
    }
    advance(n);
  }

  /// True for caches created by paged().
  bool paged() const { return pool_ != nullptr; }
  /// Block table of a paged cache (logical block index -> pool block id).
  const std::vector<BlockId>& block_table() const { return table_; }

  void reset() {
    if (pool_ != nullptr) {
      for (const BlockId b : table_) pool_->release(b);
      table_.clear();
    }
    length_ = 0;
  }

  /// Frees all storage (pool blocks back to the pool, owned tensors
  /// dropped). The cache stays usable only via move-assignment afterwards;
  /// the serve engine calls this when a request finishes so its blocks do
  /// not outlive the accounting window.
  void release_storage() {
    if (pool_ != nullptr) {
      for (const BlockId b : table_) pool_->release(b);
      table_.clear();
    }
    keys_.clear();
    values_.clear();
    length_ = 0;
  }

  std::size_t length() const { return length_; }
  std::size_t max_seq() const { return max_seq_; }

  /// Paged mode: rows with physical backing ([0, physical_rows())).
  std::size_t physical_rows() const {
    return pool_ != nullptr ? table_.size() * block_rows_ : max_seq_;
  }

  /// Paged mode: maps enough blocks that `n` more rows beyond length() have
  /// physical backing. All-or-nothing: on pool exhaustion nothing is
  /// allocated and false is returned (the scheduler evicts and retries).
  /// No-op (true) for non-paged caches.
  bool reserve_rows(std::size_t n) {
    if (pool_ == nullptr) return true;
    FT2_CHECK_MSG(length_ + n <= max_seq_,
                  "reserve_rows past max_seq " << max_seq_);
    const std::size_t need_rows = length_ + n;
    const std::size_t need_blocks = (need_rows + block_rows_ - 1) / block_rows_;
    const std::size_t have = table_.size();
    if (need_blocks <= have) return true;
    for (std::size_t i = have; i < need_blocks; ++i) {
      BlockId b = KvBlockPool::kInvalidBlock;
      if (!pool_->try_alloc(b)) {
        while (table_.size() > have) {
          pool_->release(table_.back());
          table_.pop_back();
        }
        return false;
      }
      table_.push_back(b);
    }
    return true;
  }

  /// Paged mode: adopts `blocks` (adding a reference to each) as this
  /// cache's first rows — the serve engine's copy-on-write prefix sharing.
  /// `rows` of K/V content become readable immediately and length() starts
  /// there; the cache must be empty. Only content covered by `rows` may be
  /// read, and `rows` may end mid-block (a store into that tail block
  /// triggers copy-on-write).
  void adopt_shared_prefix(std::span<const BlockId> blocks, std::size_t rows) {
    FT2_CHECK(pool_ != nullptr && table_.empty() && length_ == 0);
    FT2_CHECK(rows <= blocks.size() * block_rows_ && rows <= max_seq_);
    table_.assign(blocks.begin(), blocks.end());
    for (const BlockId b : table_) pool_->add_ref(b);
    length_ = rows;
  }

  /// Appends k/v for the next position of block `b`. All blocks must append
  /// for a position before advance() is called.
  void store(std::size_t block, std::size_t pos, std::span<const float> k,
             std::span<const float> v) {
    FT2_ASSERT(pos < max_seq_ && k.size() == d_model_ && v.size() == d_model_);
    if (pool_ != nullptr) {
      const std::size_t bi = pos / block_rows_;
      const std::size_t r = pos % block_rows_;
      FT2_ASSERT(bi < table_.size());
      if (block == 0) make_block_writable(bi);
      const auto kd = pool_->key_row(block, table_[bi], r);
      const auto vd = pool_->value_row(block, table_[bi], r);
      std::copy(k.begin(), k.end(), kd.begin());
      std::copy(v.begin(), v.end(), vd.begin());
      return;
    }
    std::copy(k.begin(), k.end(), keys_[block].row(pos).begin());
    std::copy(v.begin(), v.end(), values_[block].row(pos).begin());
  }

  void advance() {
    FT2_ASSERT(length_ < max_seq_);
    ++length_;
  }

  /// Advances by `n` positions at once (blocked prefill stores a whole chunk
  /// of K/V rows before bumping the length).
  void advance(std::size_t n) {
    FT2_ASSERT(length_ + n <= max_seq_);
    length_ += n;
  }

  /// Rows from `pos` on that sit back to back, d_model floats apart, in
  /// every layer's key and value storage: the rest of pos's block when
  /// paged, the rest of the cache when plain. Attention reads a run of
  /// rows through one key()/value() pointer.
  std::size_t contiguous_rows(std::size_t pos) const {
    FT2_ASSERT(pos < max_seq_);
    return pool_ != nullptr ? block_rows_ - pos % block_rows_ : max_seq_ - pos;
  }

  /// Key row `pos` of `block`. Rows the forward engine stored are
  /// head-interleaved: element (head h, dim i) sits at i * n_heads + h
  /// (interleave_heads), which lets attention's Q·K put heads in vector
  /// lanes. Value rows are head-major: element (h, i) at h * head_dim + i.
  std::span<const float> key(std::size_t block, std::size_t pos) const {
    if (pool_ != nullptr) {
      return pool_->key_row(block, table_[pos / block_rows_],
                            pos % block_rows_);
    }
    return keys_[block].row(pos);
  }
  std::span<const float> value(std::size_t block, std::size_t pos) const {
    if (pool_ != nullptr) {
      return pool_->value_row(block, table_[pos / block_rows_],
                              pos % block_rows_);
    }
    return values_[block].row(pos);
  }

  /// True when position `pos` holds bit-identical keys and values in every
  /// layer of this cache and of `other` (both must store it). Compares
  /// bits, not floats: NaN payloads and signed zeros count.
  bool same_row(const KvCache& other, std::size_t pos) const {
    FT2_CHECK(other.n_layers() == n_layers() && other.d_model_ == d_model_);
    FT2_CHECK(pos < length_ && pos < other.length_);
    const std::size_t bytes = d_model_ * sizeof(float);
    for (std::size_t b = 0; b < n_layers(); ++b) {
      if (std::memcmp(key(b, pos).data(), other.key(b, pos).data(), bytes) !=
              0 ||
          std::memcmp(value(b, pos).data(), other.value(b, pos).data(),
                      bytes) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Bytes of K/V storage mapped by this cache. Plain mode: the dense
  /// allocation. Paged mode: the mapped blocks — a block shared with other
  /// caches is counted here by each sharer; the serve engine deduplicates
  /// by block id when it reports pool-resident bytes (shared blocks counted
  /// once).
  std::size_t memory_bytes() const {
    if (pool_ != nullptr) return table_.size() * pool_->block_bytes();
    std::size_t rows = 0;
    for (const Tensor& k : keys_) rows += k.numel();
    return 2 * rows * sizeof(float);
  }

 private:
  KvCache() = default;

  std::size_t n_layers() const {
    return pool_ != nullptr ? pool_->n_layers() : keys_.size();
  }

  /// Copy-on-write: a store into a block mapped by more than one cache
  /// first copies it into a fresh private block. Called once per appended
  /// row (on the first layer's store), so every layer of the row lands in
  /// the private copy.
  void make_block_writable(std::size_t bi) {
    const BlockId b = table_[bi];
    if (pool_->ref_count(b) <= 1) return;
    BlockId fresh = KvBlockPool::kInvalidBlock;
    FT2_CHECK_MSG(pool_->try_alloc(fresh),
                  "KvBlockPool exhausted during copy-on-write (reserve "
                  "accounting bug or pool sized below one sequence)");
    pool_->copy_block(b, fresh);
    pool_->release(b);
    table_[bi] = fresh;
  }

  std::size_t max_seq_ = 0;
  std::size_t d_model_ = 0;
  std::size_t length_ = 0;
  std::vector<Tensor> keys_;
  std::vector<Tensor> values_;
  /// Paged mode: pool + block table (logical block index -> pool block).
  KvBlockPool* pool_ = nullptr;
  std::size_t block_rows_ = 1;
  std::vector<BlockId> table_;
};

}  // namespace ft2
