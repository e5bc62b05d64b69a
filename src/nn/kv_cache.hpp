// Per-block key/value cache for incremental decoding.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "nn/kv_pool.hpp"

namespace ft2 {

/// Stores keys and values (post-RoPE) for every processed position of every
/// block: per block, [rows, d_model]. The cache is a row store: it copies
/// rows in and out as given and knows nothing of their column layout. The
/// forward engine (nn/model.cpp) stores key rows head-interleaved and
/// value rows head-major (see key() and value()); every copy between
/// caches (append_rows, prefix_copy, copy-on-write) moves rows verbatim.
///
/// One storage path: rows live in ref-counted blocks of a KvBlockPool,
/// resolved through the cache's block table (see nn/kv_pool.hpp). Caches
/// differ only in where the pool comes from:
///  * standalone (the three-argument constructor, TransformerLM::make_cache,
///    prefix_copy): a private pool of ONE block holding all max_seq rows,
///    mapped for the cache's whole life. Snapshots and swap copies need no
///    reserve_rows, and attention reads them as one run;
///  * paged(): blocks of the serve engine's pool, mapped as the stored
///    length grows (reserve_rows) and shared across live caches
///    (adopt_shared_prefix); a store into a shared block copies it first
///    (copy-on-write). A session's engine (InferenceSession) maps one block
///    of max_seq rows, so its requests, campaign forks included, are also
///    read as one run.
///
/// Attention walks a cache one contiguous run of rows at a time
/// (contiguous_rows): the rest of a block.
class KvCache {
 public:
  using BlockId = KvBlockPool::BlockId;

  /// A standalone cache of `n_blocks` layers and `max_seq` (>= 1) rows.
  KvCache(std::size_t n_blocks, std::size_t max_seq, std::size_t d_model)
      : KvCache(std::make_unique<KvBlockPool>(n_blocks, d_model,
                                              /*total_blocks=*/1, max_seq),
                nullptr, max_seq) {
    FT2_CHECK(reserve_rows(max_seq));
  }

  /// A cache over the shared `pool`: no physical rows are held until
  /// reserve_rows / adopt_shared_prefix maps blocks. `max_seq` caps the
  /// logical length exactly like the standalone constructor.
  static KvCache paged(KvBlockPool& pool, std::size_t max_seq) {
    return KvCache(nullptr, &pool, max_seq);
  }

  ~KvCache() { release_storage(); }

  /// Move-only: caches share blocks only through adopt_shared_prefix.
  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;
  KvCache(KvCache&& other) noexcept = default;
  KvCache& operator=(KvCache&& other) noexcept {
    if (this != &other) {
      release_storage();
      own_pool_ = std::move(other.own_pool_);
      pool_ = other.pool_;
      block_rows_ = other.block_rows_;
      max_seq_ = other.max_seq_;
      length_ = std::exchange(other.length_, 0);
      table_ = std::exchange(other.table_, {});
    }
    return *this;
  }

  /// Compact standalone copy of the first `n` (>= 1) stored rows of every
  /// block (no max_seq slack): what a snapshot or a swap-out retains.
  KvCache prefix_copy(std::size_t n) const {
    KvCache out(n_layers(), n, d_model());
    out.append_rows(*this, n);
    return out;
  }

  /// Appends rows [length(), length() + n) of every block, read from the
  /// same positions of `src`, then advances by `n`: a campaign fork copies
  /// a snapshot's prefix in, a swap-resumed request restores its evicted
  /// rows, prefix_copy fills its compact copy. The destination must
  /// already back those rows (reserve_rows); a store into a shared block
  /// copies it first, as any store does.
  void append_rows(const KvCache& src, std::size_t n) {
    FT2_CHECK(src.n_layers() == n_layers() && src.d_model() == d_model());
    FT2_CHECK(length_ + n <= src.length_ && length_ + n <= physical_rows());
    const std::size_t layers = n_layers();
    for (std::size_t pos = length_; pos < length_ + n; ++pos) {
      for (std::size_t b = 0; b < layers; ++b) {
        store(b, pos, src.key(b, pos), src.value(b, pos));
      }
    }
    advance(n);
  }

  /// Block table (logical block index -> pool block id).
  const std::vector<BlockId>& block_table() const { return table_; }

  /// Forgets every stored row but keeps the mapped blocks, so a standalone
  /// cache stays fully backed.
  void reset() { length_ = 0; }

  /// Returns every mapped block to the pool and forgets every row; a later
  /// reserve_rows maps blocks again. The serve engine calls this when a
  /// request finishes or is swapped out.
  void release_storage() {
    for (const BlockId b : table_) pool_->release(b);
    table_.clear();
    length_ = 0;
  }

  std::size_t length() const { return length_; }
  std::size_t max_seq() const { return max_seq_; }

  /// Rows with physical backing ([0, physical_rows())).
  std::size_t physical_rows() const { return table_.size() * block_rows_; }

  /// Blocks reserve_rows(n) maps.
  std::size_t blocks_to_reserve(std::size_t n) const {
    const std::size_t need = (length_ + n + block_rows_ - 1) / block_rows_;
    return need > table_.size() ? need - table_.size() : 0;
  }

  /// Maps enough blocks that `n` more rows beyond length() have physical
  /// backing. All-or-nothing: on pool exhaustion nothing is allocated and
  /// false is returned (the scheduler evicts and retries).
  bool reserve_rows(std::size_t n) {
    FT2_CHECK_MSG(length_ + n <= max_seq_,
                  "reserve_rows past max_seq " << max_seq_);
    const std::size_t have = table_.size();
    for (std::size_t i = blocks_to_reserve(n); i > 0; --i) {
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

  /// Adopts `blocks` (adding a reference to each) as this cache's first
  /// rows — the serve engine's copy-on-write prefix sharing. `rows` of K/V
  /// content become readable immediately and length() starts there; the
  /// cache must map no block yet. Only content covered by `rows` may be
  /// read, and `rows` may end mid-block (a store into that tail block
  /// triggers copy-on-write).
  void adopt_shared_prefix(std::span<const BlockId> blocks, std::size_t rows) {
    FT2_CHECK(table_.empty() && length_ == 0);
    FT2_CHECK(rows <= blocks.size() * block_rows_ && rows <= max_seq_);
    table_.assign(blocks.begin(), blocks.end());
    for (const BlockId b : table_) pool_->add_ref(b);
    length_ = rows;
  }

  /// Appends k/v for the next position of block `b`. All blocks must append
  /// for a position before advance() is called.
  void store(std::size_t block, std::size_t pos, std::span<const float> k,
             std::span<const float> v) {
    FT2_ASSERT(pos < max_seq_ && k.size() == d_model() &&
               v.size() == d_model());
    const std::size_t bi = pos / block_rows_;
    FT2_ASSERT(bi < table_.size());
    if (block == 0) make_block_writable(bi);
    const std::size_t r = pos % block_rows_;
    std::copy(k.begin(), k.end(), pool_->key_row(block, table_[bi], r).begin());
    std::copy(v.begin(), v.end(),
              pool_->value_row(block, table_[bi], r).begin());
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
  /// every layer's key and value storage: the rest of pos's block.
  /// Attention reads a run of rows through one key()/value() pointer.
  std::size_t contiguous_rows(std::size_t pos) const {
    FT2_ASSERT(pos < max_seq_);
    return block_rows_ - pos % block_rows_;
  }

  /// Key row `pos` of `block`. Rows the forward engine stored are
  /// head-interleaved: element (head h, dim i) sits at i * n_heads + h
  /// (interleave_heads), which lets attention's Q·K put heads in vector
  /// lanes. Value rows are head-major: element (h, i) at h * head_dim + i.
  std::span<const float> key(std::size_t block, std::size_t pos) const {
    return pool_->key_row(block, table_[pos / block_rows_], pos % block_rows_);
  }
  std::span<const float> value(std::size_t block, std::size_t pos) const {
    return pool_->value_row(block, table_[pos / block_rows_],
                            pos % block_rows_);
  }

  /// True when position `pos` holds bit-identical keys and values in every
  /// layer of this cache and of `other` (both must store it). Compares
  /// bits, not floats: NaN payloads and signed zeros count.
  bool same_row(const KvCache& other, std::size_t pos) const {
    FT2_CHECK(other.n_layers() == n_layers() && other.d_model() == d_model());
    FT2_CHECK(pos < length_ && pos < other.length_);
    const std::size_t bytes = d_model() * sizeof(float);
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

  /// Bytes of K/V storage in the mapped blocks. A block shared with other
  /// caches is counted here by each sharer; the serve engine deduplicates
  /// by block id when it reports pool-resident bytes.
  std::size_t memory_bytes() const {
    return table_.size() * pool_->block_bytes();
  }

 private:
  /// `own_pool` for a standalone cache, else the shared `pool`.
  KvCache(std::unique_ptr<KvBlockPool> own_pool, KvBlockPool* pool,
          std::size_t max_seq)
      : own_pool_(std::move(own_pool)),
        pool_(own_pool_ != nullptr ? own_pool_.get() : pool),
        block_rows_(pool_->block_rows()),
        max_seq_(max_seq) {}

  std::size_t n_layers() const { return pool_->n_layers(); }
  std::size_t d_model() const { return pool_->d_model(); }

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

  std::unique_ptr<KvBlockPool> own_pool_;  ///< standalone caches only
  KvBlockPool* pool_;                      ///< where every row lives
  std::size_t block_rows_;
  std::size_t max_seq_;
  std::size_t length_ = 0;
  std::vector<BlockId> table_;  ///< logical block index -> pool block
};

}  // namespace ft2
