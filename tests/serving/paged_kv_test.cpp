#include "serving/paged_kv.h"

#include <gtest/gtest.h>

#include <string>

namespace liger::serving {
namespace {

// Tiny spec keeps the block arithmetic hand-checkable:
// one block (16 tokens, tp=1) = 2 * 4 layers * 8 heads * 64 dim * 16 * 2B.
model::ModelSpec tiny() { return model::ModelSpec{"tiny", 4, 8, 64}; }

// Accounting invariant, asserted after every test's mutations: every
// block is either free or held exactly once, and the token ledger
// matches the held groups.
void expect_clean(const PagedKvAllocator& a) {
  std::string err;
  EXPECT_TRUE(a.audit(&err)) << err;
}

TEST(KvCacheBytesTest, Formula) {
  // 2 (K+V) * layers * batch * heads/tp * head_dim * ctx * 2 bytes.
  model::ModelSpec m{"x", 4, 8, 64};  // head_dim 8
  EXPECT_EQ(kv_cache_bytes(m, 2, 10, 2), 2ull * 4 * 2 * 4 * 8 * 10 * 2);
}

TEST(KvCacheBytesTest, GrowsLinearlyWithContext) {
  const auto m = model::ModelZoo::opt_30b();
  EXPECT_EQ(kv_cache_bytes(m, 32, 200, 4), 2 * kv_cache_bytes(m, 32, 100, 4));
}

TEST(KvCacheBytesTest, EmptyBatchOrContextHoldsNothing) {
  model::ModelSpec m{"x", 4, 8, 64};
  EXPECT_EQ(kv_cache_bytes(m, 0, 10, 2), 0u);
  EXPECT_EQ(kv_cache_bytes(m, -1, 10, 2), 0u);
  EXPECT_EQ(kv_cache_bytes(m, 2, 0, 2), 0u);
  EXPECT_EQ(kv_cache_bytes(m, 2, -5, 2), 0u);
}

TEST(KvCacheBytesTest, TpNotDividingHeadsRoundsShardUp) {
  // 8 heads over tp=3: each rank stores ceil(8/3) = 3 head shards — the
  // uneven split costs memory on the widest rank, it doesn't lose heads.
  model::ModelSpec m{"x", 4, 8, 64};
  EXPECT_EQ(kv_cache_bytes(m, 2, 10, 3), 2ull * 4 * 2 * 3 * 8 * 10 * 2);
  // tp wider than heads still leaves one head per rank.
  EXPECT_EQ(kv_cache_bytes(m, 2, 10, 16), 2ull * 4 * 2 * 1 * 8 * 10 * 2);
}

TEST(PagedKvAllocatorTest, BlockBytesMatchesKvCacheBytesForOneBlock) {
  EXPECT_EQ(PagedKvAllocator::block_bytes(tiny(), 16, 1),
            kv_cache_bytes(tiny(), 1, 16, 1));
  EXPECT_EQ(PagedKvAllocator::block_bytes(tiny(), 16, 3),
            kv_cache_bytes(tiny(), 1, 16, 3));
}

TEST(PagedKvAllocatorTest, PoolRoundsDownToWholeBlocksWithAFloorOfOne) {
  const auto bb = PagedKvAllocator::block_bytes(tiny(), 16, 1);
  EXPECT_EQ(PagedKvAllocator(tiny(), 16, 1, 10 * bb + bb / 2).total_blocks(), 10);
  EXPECT_EQ(PagedKvAllocator(tiny(), 16, 1, 0).total_blocks(), 1)
      << "a zero-block pool could never admit anything";
}

TEST(PagedKvAllocatorTest, BlocksForIsCeilOverBlockTokens) {
  PagedKvAllocator a(tiny(), 16, 1, 64 * PagedKvAllocator::block_bytes(tiny(), 16, 1));
  EXPECT_EQ(a.blocks_for(0), 0);
  EXPECT_EQ(a.blocks_for(1), 1);
  EXPECT_EQ(a.blocks_for(16), 1);
  EXPECT_EQ(a.blocks_for(17), 2);
  EXPECT_EQ(a.blocks_for_group(3, 17), 6);
}

TEST(PagedKvAllocatorTest, AllocateAppendReleaseRoundTrip) {
  PagedKvAllocator a(tiny(), 16, 1, 8 * PagedKvAllocator::block_bytes(tiny(), 16, 1));
  ASSERT_TRUE(a.allocate(7, /*seqs=*/2, /*tokens=*/16));
  EXPECT_EQ(a.used_blocks(), 2);
  EXPECT_EQ(a.held_blocks(7), 2);

  // Appends within the block are free; crossing the boundary takes one
  // new block per sequence.
  ASSERT_TRUE(a.append(7));  // 16 -> 17 crosses
  EXPECT_EQ(a.used_blocks(), 4);
  ASSERT_TRUE(a.append(7));  // 17 -> 18 stays inside
  EXPECT_EQ(a.used_blocks(), 4);

  a.release(7);
  EXPECT_EQ(a.used_blocks(), 0);
  EXPECT_FALSE(a.holds(7));
  a.release(7);  // double release is a no-op (post-preemption path)
  EXPECT_EQ(a.free_blocks(), 8);
  expect_clean(a);
}

TEST(PagedKvAllocatorTest, RefusesWithoutSideEffectsWhenPoolExhausted) {
  PagedKvAllocator a(tiny(), 16, 1, 5 * PagedKvAllocator::block_bytes(tiny(), 16, 1));
  ASSERT_TRUE(a.allocate(0, 1, 48));  // 3 blocks
  EXPECT_FALSE(a.can_allocate(1, 48));
  EXPECT_FALSE(a.allocate(1, 1, 48));
  EXPECT_EQ(a.used_blocks(), 3) << "failed allocate must not leak blocks";
  EXPECT_FALSE(a.holds(1));

  ASSERT_TRUE(a.allocate(1, 1, 16));
  ASSERT_TRUE(a.append(0));        // 48 -> 49 crosses, takes the last block
  EXPECT_EQ(a.used_blocks(), 5);
  EXPECT_TRUE(a.can_append(0));    // 49 -> 50 stays inside the block
  EXPECT_FALSE(a.can_append(1));   // 16 -> 17 needs a block; none left
  EXPECT_FALSE(a.append(1));
  EXPECT_EQ(a.held_blocks(1), 1) << "failed append must leave the group intact";
  EXPECT_EQ(a.stats().failed_allocs, 2u);
  expect_clean(a);
}

TEST(PagedKvAllocatorTest, LifoFreeListReproducesBlockIdsAfterRelease) {
  PagedKvAllocator a(tiny(), 16, 1, 8 * PagedKvAllocator::block_bytes(tiny(), 16, 1));
  ASSERT_TRUE(a.allocate(0, 1, 32));
  ASSERT_TRUE(a.allocate(1, 1, 32));
  const auto used_before = a.used_blocks();
  a.release(0);
  a.release(1);
  ASSERT_TRUE(a.allocate(0, 1, 32));
  ASSERT_TRUE(a.allocate(1, 1, 32));
  EXPECT_EQ(a.used_blocks(), used_before)
      << "release + reallocate in the same order reproduces the layout";
  expect_clean(a);
}

TEST(PagedKvAllocatorTest, StatsTrackPeakTokensAndFragmentation) {
  PagedKvAllocator a(tiny(), 16, 1, 8 * PagedKvAllocator::block_bytes(tiny(), 16, 1));
  ASSERT_TRUE(a.allocate(0, 1, 24));  // 2 blocks, 24 of 32 token-slots used
  auto s = a.stats();
  EXPECT_EQ(s.total_blocks, 8);
  EXPECT_EQ(s.used_blocks, 2);
  EXPECT_EQ(s.allocated_tokens, 24);
  EXPECT_DOUBLE_EQ(s.utilization(), 24.0 / 32.0);
  EXPECT_DOUBLE_EQ(s.fragmentation(), 1.0 - 24.0 / 32.0);

  ASSERT_TRUE(a.allocate(1, 1, 64));  // peak: 6 blocks
  a.release(1);
  s = a.stats();
  EXPECT_EQ(s.used_blocks, 2);
  EXPECT_EQ(s.peak_used_blocks, 6);
  EXPECT_EQ(a.peak_bytes_per_device(), 6 * s.block_bytes);
  EXPECT_EQ(s.alloc_calls, 2u);
  EXPECT_EQ(s.release_calls, 1u);
  expect_clean(a);
}

TEST(PagedKvAllocatorTest, AuditHoldsThroughMixedTraffic) {
  PagedKvAllocator a(tiny(), 16, 1, 12 * PagedKvAllocator::block_bytes(tiny(), 16, 1));
  expect_clean(a);  // pristine pool: everything on the free list
  ASSERT_TRUE(a.allocate(0, 2, 16));
  expect_clean(a);
  ASSERT_TRUE(a.allocate(1, 1, 48));
  ASSERT_TRUE(a.append(0));  // crosses a block boundary for both seqs
  expect_clean(a);
  a.release(0);
  expect_clean(a);
  ASSERT_TRUE(a.allocate(2, 1, 64));
  EXPECT_FALSE(a.allocate(3, 2, 64));  // refused: must not disturb the books
  expect_clean(a);
  a.release(1);
  a.release(2);
  expect_clean(a);
  EXPECT_EQ(a.free_blocks(), 12);
}

TEST(PagedKvAllocatorTest, RebuildResizesThePoolForTheSurvivorShard) {
  // tp 4 -> 3 after a fail-stop: each survivor holds more heads, so
  // blocks grow and the same pool bytes yield fewer of them.
  const std::uint64_t pool = 12 * PagedKvAllocator::block_bytes(tiny(), 16, 4);
  PagedKvAllocator a(tiny(), 16, 4, pool);
  ASSERT_TRUE(a.allocate(0, 1, 32));
  a.release(0);  // rebuild requires an empty pool (purge precedes it)
  a.rebuild(tiny(), 3, pool);

  EXPECT_EQ(a.stats().block_bytes, PagedKvAllocator::block_bytes(tiny(), 16, 3));
  EXPECT_EQ(a.total_blocks(),
            static_cast<int>(pool / PagedKvAllocator::block_bytes(tiny(), 16, 3)));
  EXPECT_LT(a.total_blocks(), 12);
  EXPECT_EQ(a.free_blocks(), a.total_blocks());
  EXPECT_EQ(a.stats().rebuilds, 1u);
  EXPECT_EQ(a.stats().peak_used_blocks, 0) << "peak resets with the new geometry";
  expect_clean(a);

  // The rebuilt free list hands out block 0 first, like a fresh pool.
  ASSERT_TRUE(a.allocate(1, 1, 16));
  EXPECT_EQ(a.held_blocks(1), 1);
  expect_clean(a);
}

TEST(PagedKvAllocatorTest, RebuildFloorsDegeneratePoolsAtOneBlock) {
  PagedKvAllocator a(tiny(), 16, 1, 4 * PagedKvAllocator::block_bytes(tiny(), 16, 1));
  a.rebuild(tiny(), 1, /*pool_bytes_per_device=*/1);
  EXPECT_EQ(a.total_blocks(), 1);
  expect_clean(a);
}

}  // namespace
}  // namespace liger::serving
