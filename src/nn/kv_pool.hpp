// Fixed-block K/V storage pool: where every KvCache keeps its rows.
//
// A KvBlockPool owns a fixed arena of physical blocks, each holding
// `block_rows` K/V rows for EVERY transformer layer (one [rows, d_model]
// slab per layer for keys and one for values). A KvCache maps its logical
// sequence positions onto pool blocks through a block table.
//
// Two kinds of owner, one storage path. The serve engine's pool serves its
// requests' caches and its prefix registry's block references: a request's
// resident footprint grows in block-sized steps with its actual length
// instead of being a dense max_seq allocation up front, so the pool, not
// max_seq capacity, bounds concurrent sequences. A standalone cache (solo
// sessions, campaign forks, snapshots, swap copies) owns a private pool of
// one max_seq-row block, mapped for the cache's whole life: one
// [max_seq, d_model] key tensor and one value tensor per layer.
//
// Blocks are ref-counted: several caches may map the same block (shared
// prompt prefixes across live serve requests). Shared blocks are immutable
// from a writer's point of view — a cache that stores into a block with
// more than one reference first copies it into a fresh private block
// (copy-on-write), so a sharer can never observe another sequence's
// writes.
//
// Allocation is a LIFO free list: deterministic given the same operation
// sequence, O(1) per block, no fragmentation (all blocks are the same
// size). The pool is single-threaded like the serve engine that owns it.
//
// Kernels read rows through KvCache::key()/value() and never see the block
// table, so DecodeSlot, forward_batch and the attention read path do not
// know which kind of pool a cache runs on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "tensor/tensor.hpp"

namespace ft2 {

class KvBlockPool {
 public:
  using BlockId = std::uint32_t;
  static constexpr BlockId kInvalidBlock = ~BlockId{0};

  /// `n_layers` transformer blocks, `d_model` columns per row,
  /// `total_blocks` physical blocks of `block_rows` rows each.
  KvBlockPool(std::size_t n_layers, std::size_t d_model,
              std::size_t total_blocks, std::size_t block_rows = 16);

  std::size_t n_layers() const { return n_layers_; }
  std::size_t d_model() const { return d_model_; }
  std::size_t block_rows() const { return block_rows_; }
  std::size_t total_blocks() const { return refs_.size(); }
  std::size_t used_blocks() const { return refs_.size() - free_.size(); }
  std::size_t free_blocks() const { return free_.size(); }

  /// K + V bytes of one physical block across every layer.
  std::size_t block_bytes() const {
    return 2 * n_layers_ * block_rows_ * d_model_ * sizeof(float);
  }

  /// Pops a free block (ref count 1). Returns false when the pool is
  /// exhausted — the caller decides whether to evict or back off.
  bool try_alloc(BlockId& out);

  /// Adds a reference to a live block (prefix sharing).
  void add_ref(BlockId b) {
    FT2_ASSERT(b < refs_.size() && refs_[b] > 0);
    ++refs_[b];
  }

  /// Drops one reference; the block returns to the free list at zero.
  void release(BlockId b);

  std::uint32_t ref_count(BlockId b) const {
    FT2_ASSERT(b < refs_.size());
    return refs_[b];
  }

  /// Row `r` of block `b` in layer `layer`'s key / value slab.
  std::span<float> key_row(std::size_t layer, BlockId b, std::size_t r) {
    FT2_ASSERT(layer < n_layers_ && b < refs_.size() && r < block_rows_);
    return keys_[layer].row(b * block_rows_ + r);
  }
  std::span<const float> key_row(std::size_t layer, BlockId b,
                                 std::size_t r) const {
    FT2_ASSERT(layer < n_layers_ && b < refs_.size() && r < block_rows_);
    return keys_[layer].row(b * block_rows_ + r);
  }
  std::span<float> value_row(std::size_t layer, BlockId b, std::size_t r) {
    FT2_ASSERT(layer < n_layers_ && b < refs_.size() && r < block_rows_);
    return values_[layer].row(b * block_rows_ + r);
  }
  std::span<const float> value_row(std::size_t layer, BlockId b,
                                   std::size_t r) const {
    FT2_ASSERT(layer < n_layers_ && b < refs_.size() && r < block_rows_);
    return values_[layer].row(b * block_rows_ + r);
  }

  /// Copies every layer's K/V rows of `src` into `dst` (the copy-on-write
  /// step). `dst` must be a live (allocated) block.
  void copy_block(BlockId src, BlockId dst);

 private:
  std::size_t n_layers_;
  std::size_t d_model_;
  std::size_t block_rows_;
  std::vector<Tensor> keys_;    ///< per layer [total_blocks * block_rows, d]
  std::vector<Tensor> values_;  ///< per layer [total_blocks * block_rows, d]
  std::vector<std::uint32_t> refs_;  ///< 0 = free
  std::vector<BlockId> free_;        ///< LIFO free list
};

}  // namespace ft2
