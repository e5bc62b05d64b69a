// KvBlockPool and KvCache semantics:
//   - block allocation is LIFO, ref-counted and exhaustion-safe;
//   - a cache over a shared pool stores/reads bit-identically to a
//     standalone cache;
//   - a standalone cache stays fully backed across reset();
//   - reserve_rows is all-or-nothing under pool exhaustion;
//   - copy-on-write isolates sharers of adopted prefixes;
//   - adopt_shared_prefix keeps blocks alive past the donor's release;
//   - memory accounting is block-granular;
//   - prefix_copy / append_rows move rows between caches bit-exactly;
//   - contiguous_rows splits a cache into runs that attention can read
//     through one key()/value() pointer each.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "nn/kv_cache.hpp"
#include "nn/kv_pool.hpp"

namespace ft2 {
namespace {

constexpr std::size_t kLayers = 2;
constexpr std::size_t kDModel = 4;
constexpr std::size_t kBlockRows = 2;

/// Distinct fill value per (layer, position, column, keys-vs-values).
float fill(std::size_t layer, std::size_t pos, std::size_t col, bool value) {
  return static_cast<float>(layer * 1000 + pos * 10 + col) +
         (value ? 0.5f : 0.0f);
}

std::vector<float> row_of(std::size_t layer, std::size_t pos, bool value) {
  std::vector<float> row(kDModel);
  for (std::size_t c = 0; c < kDModel; ++c) row[c] = fill(layer, pos, c, value);
  return row;
}

/// Appends position `pos` (every layer) to `cache` and advances.
void append_row(KvCache& cache, std::size_t pos) {
  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    cache.store(layer, pos, row_of(layer, pos, false), row_of(layer, pos, true));
  }
  cache.advance();
}

void expect_row(const KvCache& cache, std::size_t pos, const char* what) {
  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    const auto k = cache.key(layer, pos);
    const auto v = cache.value(layer, pos);
    for (std::size_t c = 0; c < kDModel; ++c) {
      EXPECT_EQ(k[c], fill(layer, pos, c, false))
          << what << ": key layer " << layer << " pos " << pos << " col " << c;
      EXPECT_EQ(v[c], fill(layer, pos, c, true))
          << what << ": value layer " << layer << " pos " << pos << " col "
          << c;
    }
  }
}

TEST(KvPool, AllocReleaseRefcount) {
  KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/3, kBlockRows);
  EXPECT_EQ(pool.total_blocks(), 3u);
  EXPECT_EQ(pool.free_blocks(), 3u);

  KvBlockPool::BlockId a = KvBlockPool::kInvalidBlock;
  KvBlockPool::BlockId b = KvBlockPool::kInvalidBlock;
  KvBlockPool::BlockId c = KvBlockPool::kInvalidBlock;
  ASSERT_TRUE(pool.try_alloc(a));
  ASSERT_TRUE(pool.try_alloc(b));
  ASSERT_TRUE(pool.try_alloc(c));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(pool.used_blocks(), 3u);

  KvBlockPool::BlockId overflow = KvBlockPool::kInvalidBlock;
  EXPECT_FALSE(pool.try_alloc(overflow));

  EXPECT_EQ(pool.ref_count(a), 1u);
  pool.add_ref(a);
  EXPECT_EQ(pool.ref_count(a), 2u);
  pool.release(a);
  EXPECT_EQ(pool.ref_count(a), 1u);
  EXPECT_EQ(pool.free_blocks(), 0u);  // still referenced once
  pool.release(a);
  EXPECT_EQ(pool.free_blocks(), 1u);

  // LIFO reuse: the block released last comes back first.
  KvBlockPool::BlockId again = KvBlockPool::kInvalidBlock;
  ASSERT_TRUE(pool.try_alloc(again));
  EXPECT_EQ(again, a);

  pool.release(b);
  pool.release(c);
  pool.release(again);
  EXPECT_EQ(pool.free_blocks(), 3u);
}

TEST(KvPool, CopyBlockCopiesEveryLayer) {
  KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/2, kBlockRows);
  KvBlockPool::BlockId src = KvBlockPool::kInvalidBlock;
  KvBlockPool::BlockId dst = KvBlockPool::kInvalidBlock;
  ASSERT_TRUE(pool.try_alloc(src));
  ASSERT_TRUE(pool.try_alloc(dst));

  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    for (std::size_t r = 0; r < kBlockRows; ++r) {
      const auto k = row_of(layer, r, false);
      const auto v = row_of(layer, r, true);
      std::copy(k.begin(), k.end(), pool.key_row(layer, src, r).begin());
      std::copy(v.begin(), v.end(), pool.value_row(layer, src, r).begin());
    }
  }
  pool.copy_block(src, dst);
  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    for (std::size_t r = 0; r < kBlockRows; ++r) {
      const auto k = pool.key_row(layer, dst, r);
      const auto v = pool.value_row(layer, dst, r);
      for (std::size_t c = 0; c < kDModel; ++c) {
        EXPECT_EQ(k[c], fill(layer, r, c, false));
        EXPECT_EQ(v[c], fill(layer, r, c, true));
      }
    }
  }
  pool.release(src);
  pool.release(dst);
}

TEST(KvCachePaged, StoreReadMatchesDense) {
  const std::size_t max_seq = 8;
  KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/4, kBlockRows);
  KvCache dense(kLayers, max_seq, kDModel);
  KvCache paged = KvCache::paged(pool, max_seq);
  EXPECT_EQ(paged.physical_rows(), 0u);

  for (std::size_t pos = 0; pos < max_seq; ++pos) {
    ASSERT_TRUE(paged.reserve_rows(1));
    append_row(dense, pos);
    append_row(paged, pos);
  }
  EXPECT_EQ(paged.length(), dense.length());
  EXPECT_EQ(paged.block_table().size(), 4u);
  EXPECT_EQ(paged.physical_rows(), max_seq);
  for (std::size_t pos = 0; pos < max_seq; ++pos) {
    expect_row(dense, pos, "dense");
    expect_row(paged, pos, "paged");
  }
  // Block-granular accounting: exactly the mapped blocks.
  EXPECT_EQ(paged.memory_bytes(), 4u * pool.block_bytes());
}

TEST(KvCachePaged, ReserveRowsIsAllOrNothing) {
  KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/3, kBlockRows);
  KvCache a = KvCache::paged(pool, /*max_seq=*/8);
  ASSERT_TRUE(a.reserve_rows(2));  // 1 block
  EXPECT_EQ(pool.free_blocks(), 2u);

  // b needs 3 blocks for 5 rows but only 2 are free: nothing may leak.
  KvCache b = KvCache::paged(pool, /*max_seq=*/8);
  EXPECT_FALSE(b.reserve_rows(5));
  EXPECT_EQ(pool.free_blocks(), 2u);
  EXPECT_TRUE(b.block_table().empty());

  // A fitting reservation still succeeds afterwards.
  EXPECT_TRUE(b.reserve_rows(3));
  EXPECT_EQ(b.block_table().size(), 2u);
  EXPECT_EQ(pool.free_blocks(), 0u);
}

TEST(KvCachePaged, CopyOnWriteIsolatesSharers) {
  KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/4, kBlockRows);
  KvCache a = KvCache::paged(pool, /*max_seq=*/8);
  ASSERT_TRUE(a.reserve_rows(1));
  append_row(a, 0);  // half a block: the next store lands in a shared block

  // b maps the same block with an extra reference.
  KvCache b = KvCache::paged(pool, /*max_seq=*/8);
  b.adopt_shared_prefix(a.block_table(), a.length());
  ASSERT_EQ(a.block_table(), b.block_table());
  EXPECT_EQ(pool.ref_count(a.block_table()[0]), 2u);
  EXPECT_EQ(b.length(), 1u);

  // b appends into the shared block: copy-on-write gives b a private block,
  // a's rows are untouched and the tables diverge.
  ASSERT_TRUE(b.reserve_rows(1));
  append_row(b, 1);
  EXPECT_NE(a.block_table()[0], b.block_table()[0]);
  EXPECT_EQ(pool.ref_count(a.block_table()[0]), 1u);
  EXPECT_EQ(pool.ref_count(b.block_table()[0]), 1u);
  expect_row(a, 0, "original after COW");
  expect_row(b, 0, "sharer reads the copied row");
  expect_row(b, 1, "sharer's private append");
  EXPECT_EQ(a.length(), 1u);
  EXPECT_EQ(b.length(), 2u);
}

TEST(KvCachePaged, AdoptSharedPrefixOutlivesDonor) {
  KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/4, kBlockRows);
  KvCache donor = KvCache::paged(pool, /*max_seq=*/8);
  ASSERT_TRUE(donor.reserve_rows(4));  // 2 full blocks
  for (std::size_t pos = 0; pos < 4; ++pos) append_row(donor, pos);

  KvCache sharer = KvCache::paged(pool, /*max_seq=*/8);
  sharer.adopt_shared_prefix(donor.block_table(), /*rows=*/4);
  EXPECT_EQ(sharer.length(), 4u);
  EXPECT_EQ(pool.ref_count(donor.block_table()[0]), 2u);
  for (std::size_t pos = 0; pos < 4; ++pos) {
    expect_row(sharer, pos, "adopted prefix");
  }

  // The sharer continues past the prefix in its own fresh block.
  ASSERT_TRUE(sharer.reserve_rows(1));
  append_row(sharer, 4);
  expect_row(donor, 0, "donor unaffected");
  EXPECT_EQ(donor.length(), 4u);

  // Donor releases: the shared blocks stay alive through the sharer's refs.
  donor.release_storage();
  EXPECT_EQ(pool.used_blocks(), 3u);
  for (std::size_t pos = 0; pos < 5; ++pos) {
    expect_row(sharer, pos, "after donor release");
  }

  sharer.release_storage();
  EXPECT_EQ(pool.free_blocks(), pool.total_blocks());
}

TEST(KvCache, PrefixCopyIsCompact) {
  KvCache cache(kLayers, /*max_seq=*/16, kDModel);
  for (std::size_t pos = 0; pos < 5; ++pos) append_row(cache, pos);
  const KvCache copy = cache.prefix_copy(3);
  EXPECT_EQ(copy.length(), 3u);
  EXPECT_EQ(copy.max_seq(), 3u);  // rows beyond the copy are not allocated
  for (std::size_t pos = 0; pos < 3; ++pos) expect_row(copy, pos, "copy");
  // [n, d] rows, keys + values, every layer.
  EXPECT_EQ(copy.memory_bytes(), 2 * kLayers * 3 * kDModel * sizeof(float));
}

TEST(KvCache, StandaloneStaysBackedAndForksFromPrefixCopy) {
  const std::size_t max_seq = 8;
  KvCache cache(kLayers, max_seq, kDModel);
  EXPECT_EQ(cache.physical_rows(), max_seq);
  for (std::size_t pos = 0; pos < 5; ++pos) append_row(cache, pos);
  // reset() forgets the rows, not the backing: the cache refills without
  // reserve_rows, as a session's next generate does.
  cache.reset();
  EXPECT_EQ(cache.length(), 0u);
  EXPECT_EQ(cache.physical_rows(), cache.max_seq());
  for (std::size_t pos = 0; pos < 5; ++pos) append_row(cache, pos);

  // A campaign snapshot and the fork that copies its rows back in.
  const KvCache copy = cache.prefix_copy(3);
  EXPECT_EQ(copy.physical_rows(), 3u);
  KvCache fork(kLayers, max_seq, kDModel);
  fork.append_rows(copy, 3);
  EXPECT_EQ(fork.length(), 3u);
  for (std::size_t pos = 0; pos < 3; ++pos) {
    EXPECT_TRUE(fork.same_row(copy, pos)) << "pos " << pos;
    EXPECT_TRUE(fork.same_row(cache, pos)) << "pos " << pos;
  }
}

TEST(KvCachePaged, PrefixCopyMatchesStoredRows) {
  KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/5, kBlockRows);
  KvCache paged = KvCache::paged(pool, /*max_seq=*/4);
  ASSERT_TRUE(paged.reserve_rows(3));
  for (std::size_t pos = 0; pos < 3; ++pos) append_row(paged, pos);

  // The swap-preemption snapshot: a compact standalone copy of the first
  // rows.
  const KvCache snapshot = paged.prefix_copy(2);
  EXPECT_EQ(snapshot.length(), 2u);
  for (std::size_t pos = 0; pos < 2; ++pos) {
    expect_row(snapshot, pos, "prefix_copy");
  }

  // Swap-resume: append_rows restores a standalone copy into a fresh
  // pooled cache. Its first block is shared with a donor whose row 1 holds other
  // content, so appending row 1 must copy that block first.
  const KvCache full = paged.prefix_copy(3);
  KvCache donor = KvCache::paged(pool, /*max_seq=*/4);
  ASSERT_TRUE(donor.reserve_rows(2));
  append_row(donor, 0);
  const std::vector<float> other(kDModel, -1.0f);
  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    donor.store(layer, 1, other, other);
  }
  donor.advance();
  const KvCache::BlockId shared = donor.block_table()[0];

  KvCache restored = KvCache::paged(pool, /*max_seq=*/4);
  restored.adopt_shared_prefix(donor.block_table(), /*rows=*/1);
  ASSERT_TRUE(restored.reserve_rows(2));
  EXPECT_EQ(pool.ref_count(shared), 2u);
  restored.append_rows(full, 2);
  EXPECT_EQ(restored.length(), 3u);
  EXPECT_NE(restored.block_table()[0], shared);  // copied on write
  EXPECT_EQ(pool.ref_count(shared), 1u);
  EXPECT_EQ(pool.used_blocks(), 5u);
  for (std::size_t pos = 0; pos < 3; ++pos) {
    expect_row(restored, pos, "append_rows");
    expect_row(paged, pos, "source after append_rows");
  }
  expect_row(donor, 0, "donor after append_rows");
  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    for (std::size_t c = 0; c < kDModel; ++c) {
      EXPECT_EQ(donor.key(layer, 1)[c], -1.0f) << "donor key layer " << layer;
      EXPECT_EQ(donor.value(layer, 1)[c], -1.0f)
          << "donor value layer " << layer;
    }
  }
}

TEST(KvCachePaged, ReleaseStorageKeepsCacheReusable) {
  KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/2, kBlockRows);
  KvCache cache = KvCache::paged(pool, /*max_seq=*/4);
  ASSERT_TRUE(cache.reserve_rows(3));
  for (std::size_t pos = 0; pos < 3; ++pos) append_row(cache, pos);
  EXPECT_EQ(pool.used_blocks(), 2u);

  // What preemption does: blocks go home, the cache stays a (now empty)
  // cache over the same pool and can be refilled.
  cache.release_storage();
  EXPECT_EQ(pool.used_blocks(), 0u);
  EXPECT_EQ(cache.length(), 0u);
  ASSERT_TRUE(cache.reserve_rows(2));
  append_row(cache, 0);
  append_row(cache, 1);
  expect_row(cache, 0, "refill after release");
  expect_row(cache, 1, "refill after release");
}


/// Walks rows [0, len) the way attention does, one run of
/// contiguous_rows at a time, and checks that every row is visited exactly
/// once, that no run crosses a block, and that each row of a run is
/// reachable from the run's first key()/value() pointer at d_model strides
/// in every layer, holding the content stored for it.
void expect_runs_cover(const KvCache& cache, std::size_t len,
                       std::size_t block_rows, const char* what) {
  std::vector<int> visits(len, 0);
  for (std::size_t j = 0, n = 0; j < len; j += n) {
    n = std::min(cache.contiguous_rows(j), len - j);
    ASSERT_GT(n, 0u) << what;
    EXPECT_LE(j % block_rows + n, block_rows) << what << ": run at " << j;
    for (std::size_t layer = 0; layer < kLayers; ++layer) {
      const float* k0 = cache.key(layer, j).data();
      const float* v0 = cache.value(layer, j).data();
      for (std::size_t t = 0; t < n; ++t) {
        EXPECT_EQ(k0 + t * kDModel, cache.key(layer, j + t).data())
            << what << ": key row " << j + t << " outside run at " << j;
        EXPECT_EQ(v0 + t * kDModel, cache.value(layer, j + t).data())
            << what << ": value row " << j + t << " outside run at " << j;
        for (std::size_t c = 0; c < kDModel; ++c) {
          EXPECT_EQ(k0[t * kDModel + c], fill(layer, j + t, c, false)) << what;
          EXPECT_EQ(v0[t * kDModel + c], fill(layer, j + t, c, true)) << what;
        }
      }
    }
    for (std::size_t t = 0; t < n; ++t) ++visits[j + t];
  }
  for (std::size_t p = 0; p < len; ++p) {
    EXPECT_EQ(visits[p], 1) << what << ": row " << p;
  }
}

TEST(KvCache, ContiguousRowsCoverEveryRowOnce) {
  const std::size_t max_seq = 11;
  KvCache cache(kLayers, max_seq, kDModel);
  for (std::size_t pos = 0; pos < max_seq; ++pos) {
    append_row(cache, pos);
    EXPECT_EQ(cache.contiguous_rows(pos), max_seq - pos);
  }
  for (std::size_t len = 1; len <= max_seq; ++len) {
    expect_runs_cover(cache, len, max_seq, "standalone");
  }
}

TEST(KvCachePaged, ContiguousRowsCoverEveryRowOnce) {
  const std::size_t max_seq = 37;
  for (const std::size_t block_rows : {1, 3, 16}) {
    SCOPED_TRACE(::testing::Message() << "block_rows " << block_rows);
    KvBlockPool pool(kLayers, kDModel, /*total_blocks=*/2 * max_seq,
                     block_rows);
    KvCache cache = KvCache::paged(pool, max_seq);
    for (std::size_t pos = 0; pos < max_seq; ++pos) {
      ASSERT_TRUE(cache.reserve_rows(1));
      append_row(cache, pos);
      EXPECT_EQ(cache.contiguous_rows(pos), block_rows - pos % block_rows);
    }
    for (std::size_t len = 1; len <= max_seq; ++len) {
      expect_runs_cover(cache, len, block_rows, "paged");
    }

    // A sharer adopts a prefix that ends mid-block (for block_rows > 1),
    // then appends past it: the tail block is copied on write, and the
    // runs follow the sharer's own table.
    const std::size_t shared = block_rows == 1 ? 5 : 2 * block_rows - 1;
    KvCache sharer = KvCache::paged(pool, max_seq);
    sharer.adopt_shared_prefix(
        std::span(cache.block_table()).first((shared + block_rows - 1) /
                                             block_rows),
        shared);
    expect_runs_cover(sharer, shared, block_rows, "adopted prefix");
    for (std::size_t pos = shared; pos < max_seq; ++pos) {
      ASSERT_TRUE(sharer.reserve_rows(1));
      append_row(sharer, pos);
    }
    if (block_rows > 1) {
      EXPECT_NE(sharer.block_table()[shared / block_rows],
                cache.block_table()[shared / block_rows]);
    }
    for (std::size_t len = 1; len <= max_seq; ++len) {
      expect_runs_cover(sharer, len, block_rows, "sharer after appends");
    }
  }
}

}  // namespace
}  // namespace ft2
