// Growth paths of the bitmap substrate (§3.1 RAID-group growth).
#include <gtest/gtest.h>

#include "bitmap/activemap.hpp"
#include "bitmap/bitmap_metafile.hpp"

namespace wafl {
namespace {

TEST(BitmapGrowth, BitmapExtendsWithClearBits) {
  Bitmap bm(100);
  bm.set(50);
  bm.set(99);
  bm.grow(300);
  EXPECT_EQ(bm.size(), 300u);
  EXPECT_TRUE(bm.test(50));
  EXPECT_TRUE(bm.test(99));
  EXPECT_EQ(bm.count_set(0, 300), 2u);
  EXPECT_EQ(bm.find_first_set(100, 300), 300u);
  bm.set(299);
  EXPECT_EQ(bm.count_set(0, 300), 3u);
}

TEST(BitmapGrowth, GrowWithinSameWord) {
  Bitmap bm(10);
  bm.set(9);
  bm.grow(20);
  EXPECT_TRUE(bm.test(9));
  EXPECT_EQ(bm.count_set(0, 20), 1u);
  EXPECT_FALSE(bm.test(10));
}

TEST(BitmapGrowth, MetafileGrowExtendsSummaries) {
  BitmapMetafile mf(kBitsPerBitmapBlock + 100);  // 1 full + 1 partial block
  mf.set_allocated(5);
  mf.set_allocated(kBitsPerBitmapBlock + 50);
  const std::uint64_t free_before = mf.total_free();

  mf.grow(3 * kBitsPerBitmapBlock);
  EXPECT_EQ(mf.metafile_blocks(), 3u);
  // The partial block gained its missing bits; new block fully free.
  EXPECT_EQ(mf.block_free_count(1), kBitsPerBitmapBlock - 1);
  EXPECT_EQ(mf.block_free_count(2), kBitsPerBitmapBlock);
  EXPECT_EQ(mf.total_free(),
            free_before + (kBitsPerBitmapBlock - 100) + kBitsPerBitmapBlock);
  // Old allocations intact.
  EXPECT_TRUE(mf.test(5));
  EXPECT_TRUE(mf.test(kBitsPerBitmapBlock + 50));
  // New range allocatable.
  mf.set_allocated(2 * kBitsPerBitmapBlock + 7);
  EXPECT_EQ(mf.block_free_count(2), kBitsPerBitmapBlock - 1);
}

TEST(BitmapGrowth, GrownMetafileFlushesAndReloads) {
  BlockStore store(1);
  BitmapMetafile mf(kBitsPerBitmapBlock, &store, 0);
  mf.set_allocated(3);
  mf.flush();

  store.grow(3);
  mf.grow(3 * kBitsPerBitmapBlock);
  mf.set_allocated(2 * kBitsPerBitmapBlock + 1);
  mf.flush();

  BitmapMetafile reloaded(3 * kBitsPerBitmapBlock, &store, 0);
  reloaded.load_all();
  EXPECT_TRUE(reloaded.test(3));
  EXPECT_TRUE(reloaded.test(2 * kBitsPerBitmapBlock + 1));
  EXPECT_EQ(reloaded.total_free(), mf.total_free());
}

TEST(BitmapGrowth, ActivemapGrowKeepsAllocations) {
  Activemap am(1000);
  am.allocate(10);
  am.grow(5000);
  EXPECT_EQ(am.size_blocks(), 5000u);
  EXPECT_TRUE(am.is_allocated(10));
  am.allocate(4000);
  am.free(10);
  EXPECT_FALSE(am.is_allocated(10));
  EXPECT_TRUE(am.is_allocated(4000));
  EXPECT_EQ(am.total_free(), 4999u);
}

TEST(BlockStoreGrowth, GrowRaisesBound) {
  BlockStore store(2);
  store.grow(4);
  std::array<std::byte, kBlockSize> buf{};
  store.write(3, buf);  // would have asserted before the grow
  EXPECT_TRUE(store.is_materialized(3));
}

TEST(BlockStoreGrowthDeathTest, ShrinkAsserts) {
  BlockStore store(4);
  EXPECT_DEATH(store.grow(2), "");
}

}  // namespace
}  // namespace wafl
