#include "bitmap/bitmap_metafile.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wafl {
namespace {

constexpr std::uint64_t kTwoBlocks = 2 * kBitsPerBitmapBlock;

/// The per-bit reference for the CP boundary's batched free path: a copy
/// of a metafile's bits, per-block free counts, free total and dirty set
/// that frees one VBN at a time in the boundary's two phases —
/// clear_unaccounted() clears bits only, then account_frees() folds the
/// same VBNs into the counts and the dirty set.
class PerBitReference {
 public:
  explicit PerBitReference(const BitmapMetafile& mf)
      : bits_(mf.size_bits()),
        total_free_(mf.total_free()),
        dirty_(mf.dirty_list().begin(), mf.dirty_list().end()) {
    for (Vbn v = 0; v < mf.size_bits(); ++v) bits_[v] = mf.test(v);
    for (std::uint64_t b = 0; b < mf.metafile_blocks(); ++b) {
      free_per_block_.push_back(mf.block_free_count(b));
    }
  }

  void clear_unaccounted(Vbn v) {
    ASSERT_TRUE(bits_[v]) << "freeing a free block " << v;
    bits_[v] = false;
  }

  void account_frees(std::span<const Vbn> freed) {
    for (const Vbn v : freed) {
      ASSERT_FALSE(bits_[v]) << "accounting an uncleared free " << v;
      const std::uint64_t b = v / kBitsPerBitmapBlock;
      ++free_per_block_[b];
      ++total_free_;
      dirty_.insert(b);
    }
  }

  std::uint64_t total_free() const { return total_free_; }
  std::uint64_t dirty_blocks() const { return dirty_.size(); }

  /// Asserts `mf` holds exactly this state; the dirty sets are compared
  /// as sets, since only the batched path promises an order.
  void expect_matches(const BitmapMetafile& mf) const {
    ASSERT_EQ(mf.total_free(), total_free_);
    ASSERT_EQ(std::set<std::uint64_t>(mf.dirty_list().begin(),
                                      mf.dirty_list().end()),
              dirty_);
    for (std::uint64_t b = 0; b < free_per_block_.size(); ++b) {
      ASSERT_EQ(mf.block_free_count(b), free_per_block_[b]) << "block " << b;
    }
    for (Vbn v = 0; v < bits_.size(); ++v) {
      ASSERT_EQ(mf.test(v), bits_[v]) << "bit " << v;
    }
  }

 private:
  std::vector<bool> bits_;
  std::vector<std::uint32_t> free_per_block_;
  std::uint64_t total_free_;
  std::set<std::uint64_t> dirty_;
};

TEST(BitmapMetafile, InitialSummaries) {
  BitmapMetafile mf(kTwoBlocks + 100);
  EXPECT_EQ(mf.metafile_blocks(), 3u);
  EXPECT_EQ(mf.block_free_count(0), kBitsPerBitmapBlock);
  EXPECT_EQ(mf.block_free_count(1), kBitsPerBitmapBlock);
  EXPECT_EQ(mf.block_free_count(2), 100u);
  EXPECT_EQ(mf.total_free(), kTwoBlocks + 100);
}

TEST(BitmapMetafile, AllocFreeUpdatesSummary) {
  BitmapMetafile mf(kTwoBlocks);
  mf.set_allocated(5);
  mf.set_allocated(kBitsPerBitmapBlock + 7);
  EXPECT_EQ(mf.block_free_count(0), kBitsPerBitmapBlock - 1);
  EXPECT_EQ(mf.block_free_count(1), kBitsPerBitmapBlock - 1);
  EXPECT_EQ(mf.total_free(), kTwoBlocks - 2);
  mf.set_free(5);
  EXPECT_EQ(mf.block_free_count(0), kBitsPerBitmapBlock);
  EXPECT_EQ(mf.total_free(), kTwoBlocks - 1);
}

TEST(BitmapMetafile, FreeInRangeAlignedUsesSummary) {
  BitmapMetafile mf(kTwoBlocks);
  for (std::uint64_t i = 0; i < 10; ++i) {
    mf.set_allocated(i);
  }
  EXPECT_EQ(mf.free_in_range(0, kBitsPerBitmapBlock),
            kBitsPerBitmapBlock - 10);
  EXPECT_EQ(mf.free_in_range(0, kTwoBlocks), kTwoBlocks - 10);
  // Unaligned ranges take the popcount path; results must agree.
  EXPECT_EQ(mf.free_in_range(0, 10), 0u);
  EXPECT_EQ(mf.free_in_range(5, 15), 5u);
}

TEST(BitmapMetafile, DirtyTrackingPerBlock) {
  BitmapMetafile mf(kTwoBlocks);
  EXPECT_EQ(mf.dirty_blocks(), 0u);
  mf.set_allocated(0);
  mf.set_allocated(1);
  mf.set_allocated(2);
  EXPECT_EQ(mf.dirty_blocks(), 1u);  // same metafile block
  mf.set_allocated(kBitsPerBitmapBlock);
  EXPECT_EQ(mf.dirty_blocks(), 2u);
  mf.begin_cp();
  EXPECT_EQ(mf.dirty_blocks(), 0u);
  mf.set_free(1);
  EXPECT_EQ(mf.dirty_blocks(), 1u);
}

TEST(BitmapMetafile, FlushWritesOnlyDirtyBlocks) {
  BlockStore store(4);
  BitmapMetafile mf(kTwoBlocks, &store, 0);
  mf.set_allocated(3);
  const std::uint64_t flushed = mf.flush();
  EXPECT_EQ(flushed, 1u);
  EXPECT_EQ(store.stats().block_writes, 1u);
  EXPECT_TRUE(store.is_materialized(0));
  EXPECT_FALSE(store.is_materialized(1));
  EXPECT_EQ(mf.dirty_blocks(), 0u);
}

TEST(BitmapMetafile, FlushLoadRoundTrip) {
  BlockStore store(8);
  Rng rng(5);
  BitmapMetafile mf(kTwoBlocks + 500, &store, 0);
  std::vector<Vbn> allocated;
  for (int i = 0; i < 3000; ++i) {
    const Vbn v = rng.below(kTwoBlocks + 500);
    if (!mf.test(v)) {
      mf.set_allocated(v);
      allocated.push_back(v);
    }
  }
  mf.flush();

  BitmapMetafile reloaded(kTwoBlocks + 500, &store, 0);
  reloaded.load_all();
  EXPECT_EQ(reloaded.total_free(), mf.total_free());
  for (const Vbn v : allocated) {
    EXPECT_TRUE(reloaded.test(v));
  }
  for (std::uint64_t b = 0; b < mf.metafile_blocks(); ++b) {
    EXPECT_EQ(reloaded.block_free_count(b), mf.block_free_count(b));
  }
}

TEST(BitmapMetafile, LoadAllCountsReads) {
  BlockStore store(8);
  BitmapMetafile mf(kTwoBlocks, &store, 0);
  mf.set_allocated(0);
  mf.flush();
  store.reset_stats();

  BitmapMetafile reloaded(kTwoBlocks, &store, 0);
  reloaded.load_all();
  // The mount-path scan reads EVERY metafile block (§3.4's linear walk).
  EXPECT_EQ(store.stats().block_reads, reloaded.metafile_blocks());
}

TEST(BitmapMetafile, LoadAllParallelMatchesSerial) {
  BlockStore store(8);
  Rng rng(17);
  BitmapMetafile mf(kTwoBlocks + 123, &store, 0);
  for (int i = 0; i < 5000; ++i) {
    const Vbn v = rng.below(kTwoBlocks + 123);
    if (!mf.test(v)) mf.set_allocated(v);
  }
  mf.flush();

  BitmapMetafile serial(kTwoBlocks + 123, &store, 0);
  serial.load_all();
  ThreadPool pool(3);
  BitmapMetafile parallel(kTwoBlocks + 123, &store, 0);
  parallel.load_all(&pool);
  EXPECT_EQ(serial.total_free(), parallel.total_free());
  for (std::uint64_t b = 0; b < serial.metafile_blocks(); ++b) {
    EXPECT_EQ(serial.block_free_count(b), parallel.block_free_count(b));
  }
}

TEST(BitmapMetafile, FindFree) {
  BitmapMetafile mf(1000);
  for (Vbn v = 0; v < 100; ++v) {
    mf.set_allocated(v);
  }
  EXPECT_EQ(mf.find_free(0, 1000), 100u);
  EXPECT_EQ(mf.find_free(0, 100), 100u);
  EXPECT_EQ(mf.find_free(500, 1000), 500u);
}

TEST(BitmapMetafile, StoreBaseOffset) {
  BlockStore store(10);
  BitmapMetafile mf(kBitsPerBitmapBlock, &store, /*store_base_block=*/5);
  mf.set_allocated(0);
  mf.flush();
  EXPECT_TRUE(store.is_materialized(5));
  EXPECT_FALSE(store.is_materialized(0));
}

TEST(BitmapMetafile, SplitFreeMatchesSetFree) {
  // The reference's two phases — clear_unaccounted (bits only) then
  // account_frees (summary + dirty) — must land in exactly the state
  // set_free produces, or it is no reference for the batched path.
  const std::uint64_t n = 2 * kBitsPerBitmapBlock;
  BitmapMetafile fused(n);
  std::vector<Vbn> victims;
  for (Vbn v = 0; v < n; v += 97) victims.push_back(v);
  for (const Vbn v : victims) fused.set_allocated(v);
  fused.flush();
  PerBitReference split(fused);

  for (const Vbn v : victims) split.clear_unaccounted(v);
  // Bits cleared, but nothing accounted yet.
  EXPECT_EQ(split.total_free(), n - victims.size());
  EXPECT_EQ(split.dirty_blocks(), 0u);
  split.account_frees(victims);

  for (const Vbn v : victims) fused.set_free(v);
  split.expect_matches(fused);
}

TEST(BitmapMetafile, BatchedFreesMatchPerBitFuzz) {
  // clear_frees_batched + apply_free_deltas must land bit-for-bit and
  // count-for-count where the per-bit reference path (clear_unaccounted +
  // account_frees) lands, for random allocation densities and an
  // explicitly unsorted free order — the CP hands it deferral order.
  Rng rng(20180813);
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t n = kBitsPerBitmapBlock + rng.below(kTwoBlocks);
    BitmapMetafile batched(n);
    std::vector<Vbn> victims;
    for (Vbn v = 0; v < n; ++v) {
      if (rng.chance(0.2)) {
        batched.set_allocated(v);
        if (rng.chance(0.5)) victims.push_back(v);
      }
    }
    batched.flush();
    PerBitReference per_bit(batched);
    // Shuffle: deferral order is allocation-history order, not VBN order.
    for (std::size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[rng.below(i)]);
    }

    const BitmapMetafile::FreeDelta d = batched.clear_frees_batched(victims);
    // Bits cleared, nothing accounted yet.
    EXPECT_EQ(batched.dirty_blocks(), 0u);
    batched.apply_free_deltas(d);

    for (const Vbn v : victims) per_bit.clear_unaccounted(v);
    per_bit.account_frees(victims);
    ASSERT_NO_FATAL_FAILURE(per_bit.expect_matches(batched))
        << "round " << round;
    // Delta blocks come out ascending (the merge relies on it for
    // deterministic dirty order).
    for (std::size_t i = 1; i < d.per_block.size(); ++i) {
      ASSERT_LT(d.per_block[i - 1].first, d.per_block[i].first);
    }
  }
}

TEST(BitmapMetafile, BatchedFreesEmptyAndSingle) {
  BitmapMetafile mf(kTwoBlocks);
  EXPECT_TRUE(mf.clear_frees_batched({}).per_block.empty());
  mf.set_allocated(kBitsPerBitmapBlock + 3);
  const std::vector<Vbn> one = {kBitsPerBitmapBlock + 3};
  const BitmapMetafile::FreeDelta d = mf.clear_frees_batched(one);
  ASSERT_EQ(d.per_block.size(), 1u);
  EXPECT_EQ(d.per_block[0].first, 1u);
  EXPECT_EQ(d.per_block[0].second, 1u);
  mf.apply_free_deltas(d);
  EXPECT_EQ(mf.total_free(), kTwoBlocks);
}

TEST(BitmapMetafile, FreeInRangeUnalignedMatchesBruteForce) {
  // Interior whole blocks must come from the summary whatever the edge
  // alignment; the brute-force popcount over the same range is the oracle.
  Rng rng(99);
  const std::uint64_t n = 3 * kBitsPerBitmapBlock + 777;
  BitmapMetafile mf(n);
  for (Vbn v = 0; v < n; ++v) {
    if (rng.chance(0.3)) mf.set_allocated(v);
  }
  auto brute = [&](Vbn lo, Vbn hi) {
    std::uint64_t c = 0;
    for (Vbn v = lo; v < hi; ++v) c += mf.test(v) ? 0u : 1u;
    return c;
  };
  const std::pair<Vbn, Vbn> ranges[] = {
      {0, n},                                        // everything
      {5, kBitsPerBitmapBlock - 3},                  // inside one block
      {7, 2 * kBitsPerBitmapBlock + 11},             // both edges partial
      {kBitsPerBitmapBlock, 3 * kBitsPerBitmapBlock},          // aligned
      {kBitsPerBitmapBlock, 2 * kBitsPerBitmapBlock + 900},    // tail partial
      {123, 3 * kBitsPerBitmapBlock},                // head partial
      {n - 1, n},                                    // single trailing bit
      {42, 42},                                      // empty
  };
  for (const auto& [lo, hi] : ranges) {
    ASSERT_EQ(mf.free_in_range(lo, hi), brute(lo, hi))
        << "range [" << lo << ", " << hi << ")";
  }
}

TEST(BitmapMetafile, LoadAllMasksFinalBlockTail) {
  // The last metafile block's on-media image covers more bits than the
  // tracked space; load_all's word-level copy must not let that tail leak
  // into the bit vector or the free counts.
  BlockStore store(4);
  const std::uint64_t n = kBitsPerBitmapBlock + 100;  // block 1 is partial
  BitmapMetafile mf(n, &store, 0);
  mf.set_allocated(kBitsPerBitmapBlock + 99);
  mf.flush();
  // Poison the unused tail of the last on-media block.
  for (std::size_t bit = 100; bit < 200; ++bit) {
    store.corrupt(1, bit);
  }
  BitmapMetafile reloaded(n, &store, 0);
  reloaded.load_all();
  EXPECT_EQ(reloaded.total_free(), n - 1);
  EXPECT_EQ(reloaded.block_free_count(1), 99u);
  EXPECT_TRUE(reloaded.test(kBitsPerBitmapBlock + 99));
  // The poisoned bits are beyond size(); growth must hand them out clean.
  reloaded.grow(n + 100);
  EXPECT_EQ(reloaded.free_in_range(n, n + 100), 100u);

  // Block 1 is full-length in words but its final word is partial: the
  // load must still trim the poisoned bits past size(), and the interior
  // block 0 must come back whole, its last bit included.
  BlockStore store2(4);
  const std::uint64_t n2 = 2 * kBitsPerBitmapBlock - 10;
  BitmapMetafile mf2(n2, &store2, 0);
  mf2.set_allocated(kBitsPerBitmapBlock - 1);
  mf2.set_allocated(n2 - 1);
  mf2.flush();
  for (std::size_t bit = kBitsPerBitmapBlock - 10; bit < kBitsPerBitmapBlock;
       ++bit) {
    store2.corrupt(1, bit);
  }
  BitmapMetafile reloaded2(n2, &store2, 0);
  reloaded2.load_all();
  EXPECT_EQ(reloaded2.total_free(), n2 - 2);
  EXPECT_EQ(reloaded2.block_free_count(0), kBitsPerBitmapBlock - 1);
  EXPECT_EQ(reloaded2.block_free_count(1), kBitsPerBitmapBlock - 11);
  EXPECT_TRUE(reloaded2.test(kBitsPerBitmapBlock - 1));
  EXPECT_TRUE(reloaded2.test(n2 - 1));
  reloaded2.grow(2 * kBitsPerBitmapBlock);
  EXPECT_EQ(reloaded2.free_in_range(n2, 2 * kBitsPerBitmapBlock), 10u);
}

// Word allocation against per-bit set_allocated(): same bits, per-block
// summaries, total and dirty list (first-touch order included), and the
// unaccounted twin plus apply_alloc_deltas() lands in the same state.
TEST(BitmapMetafile, SetAllocatedWordMatchesPerBit) {
  const std::uint64_t n = 3 * kBitsPerBitmapBlock + 100;
  BitmapMetafile word(n), unaccounted(n), per_bit(n);
  Rng rng(9);
  std::vector<std::uint32_t> staged(word.metafile_blocks(), 0);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t w = rng.below((n + 63) / 64);
    std::uint64_t mask = ~word.bits().word(w) & rng.next();
    if (w == n / 64) mask &= (std::uint64_t{1} << (n % 64)) - 1;
    if (mask == 0) continue;
    word.set_allocated_word(w, mask);
    unaccounted.set_allocated_word_unaccounted(w, mask);
    staged[w * 64 / kBitsPerBitmapBlock] +=
        static_cast<std::uint32_t>(std::popcount(mask));
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      per_bit.set_allocated(w * 64 + static_cast<Vbn>(std::countr_zero(m)));
    }
  }
  BitmapMetafile::AllocDelta delta;
  for (std::uint64_t b = 0; b < staged.size(); ++b) {
    if (staged[b] != 0) delta.per_block.emplace_back(b, staged[b]);
  }
  unaccounted.apply_alloc_deltas(delta);

  const auto dirty = [](const BitmapMetafile& mf) {
    return std::vector<std::uint64_t>(mf.dirty_list().begin(),
                                      mf.dirty_list().end());
  };
  EXPECT_EQ(word.bits().words(), per_bit.bits().words());
  EXPECT_EQ(unaccounted.bits().words(), per_bit.bits().words());
  EXPECT_EQ(word.total_free(), per_bit.total_free());
  EXPECT_EQ(unaccounted.total_free(), per_bit.total_free());
  EXPECT_EQ(dirty(word), dirty(per_bit));
  for (std::uint64_t b = 0; b < per_bit.metafile_blocks(); ++b) {
    EXPECT_EQ(word.block_free_count(b), per_bit.block_free_count(b));
    EXPECT_EQ(unaccounted.block_free_count(b), per_bit.block_free_count(b));
  }
}

TEST(BitmapMetafileDeathTest, DoubleWordAllocationAsserts) {
  BitmapMetafile mf(kBitsPerBitmapBlock);
  mf.set_allocated(64 + 63);
  EXPECT_DEATH(mf.set_allocated_word(1, std::uint64_t{3} << 62),
               "double allocation");
  EXPECT_DEATH(mf.set_allocated_word_unaccounted(1, std::uint64_t{1} << 63),
               "allocating an allocated block");
}

TEST(BitmapMetafileDeathTest, DoubleAllocationAsserts) {
  BitmapMetafile mf(100);
  mf.set_allocated(1);
  EXPECT_DEATH(mf.set_allocated(1), "double allocation");
}

TEST(BitmapMetafileDeathTest, FreeingFreeBlockAsserts) {
  BitmapMetafile mf(100);
  EXPECT_DEATH(mf.set_free(1), "freeing a free block");
}

TEST(BitmapMetafileDeathTest, BatchedFreeOfFreeBlockAsserts) {
  BitmapMetafile mf(100);
  const std::vector<Vbn> frees = {1};
  EXPECT_DEATH(mf.clear_frees_batched(frees), "freeing a free block");
}

}  // namespace
}  // namespace wafl
