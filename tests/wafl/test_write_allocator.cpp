// The WriteAllocator engine: group range mapping, tetris-window lifecycle,
// and the round-robin rotation across growth — the regression this layer
// fixed: Aggregate's old rotation pointer was never reconsidered when
// add_raid_group changed the modulus, so growth could skew the rotation
// until the pointer happened to wrap.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/thread_pool.hpp"
#include "wafl/consistency_point.hpp"

namespace wafl {
namespace {

RaidGroupConfig hdd_group(std::uint64_t device_blocks) {
  RaidGroupConfig rg;
  rg.data_devices = 3;
  rg.parity_devices = 1;
  rg.device_blocks = device_blocks;
  rg.media.type = MediaType::kHdd;
  rg.aa_stripes = 1024;
  return rg;
}

std::vector<DirtyBlock> range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<DirtyBlock> out;
  for (std::uint64_t l = lo; l < hi; ++l) out.push_back({0, l});
  return out;
}

TEST(WriteAllocatorEngine, GroupOfPvbnMapsConcatenatedRanges) {
  AggregateConfig cfg;
  cfg.raid_groups = {hdd_group(16 * 1024), hdd_group(32 * 1024)};
  Aggregate agg(cfg, 1);
  const WriteAllocator& walloc = agg.write_allocator();

  ASSERT_EQ(walloc.group_count(), 2u);
  const Vbn split = 3u * 16 * 1024;
  EXPECT_EQ(walloc.group(0).base(), 0u);
  EXPECT_EQ(walloc.group(0).end(), split);
  EXPECT_EQ(walloc.group(1).base(), split);
  EXPECT_EQ(walloc.group(1).end(), split + 3u * 32 * 1024);
  EXPECT_EQ(walloc.group_of_pvbn(0), 0u);
  EXPECT_EQ(walloc.group_of_pvbn(split - 1), 0u);
  EXPECT_EQ(walloc.group_of_pvbn(split), 1u);
  EXPECT_EQ(walloc.group_of_pvbn(split + 3u * 32 * 1024 - 1), 1u);
}

TEST(WriteAllocatorEngine, WindowsIdleTracksOpenTetrisWindows) {
  AggregateConfig cfg;
  cfg.raid_groups = {hdd_group(16 * 1024)};
  Aggregate agg(cfg, 1);
  EXPECT_TRUE(agg.write_allocator().windows_idle());

  CpStats stats;
  std::vector<Vbn> out;
  agg.begin_cp();
  ASSERT_TRUE(agg.allocate_pvbns(10, out, stats));
  EXPECT_FALSE(agg.write_allocator().windows_idle());

  agg.finish_cp(stats);
  EXPECT_TRUE(agg.write_allocator().windows_idle());
}

// The satellite regression: grow mid-run (with the rotation pointer
// mid-cycle) and check the rotation stays fair — every group, including
// the new one, takes a near-equal share of subsequent writes.
TEST(WriteAllocatorEngine, RoundRobinStaysFairAfterGrowth) {
  AggregateConfig cfg;
  cfg.raid_groups = {hdd_group(16 * 1024), hdd_group(16 * 1024)};
  Aggregate agg(cfg, 7);
  FlexVolConfig vol;
  vol.file_blocks = 90'000;
  vol.vvbn_blocks = 4ull * kFlatAaBlocks;
  agg.add_volume(vol);

  // Advance the rotation partway through its cycle before growing.
  ConsistencyPoint::run(agg, range(0, 25'000));

  agg.add_raid_group(hdd_group(16 * 1024));
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    agg.raid_group(rg).reset_stats();
  }

  ConsistencyPoint::run(agg, range(25'000, 55'000));

  std::uint64_t total = 0;
  std::vector<std::uint64_t> written;
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    written.push_back(agg.raid_group(rg).stats().data_blocks_written);
    total += written.back();
  }
  ASSERT_EQ(total, 30'000u);
  for (RaidGroupId rg = 0; rg < written.size(); ++rg) {
    // A fair 3-way rotation gives each group ~1/3; a group starved by a
    // stale rotation pointer (or a new group never entering the cycle)
    // falls far outside this band.
    EXPECT_GT(written[rg], total / 5) << "RAID group " << rg << " starved";
    EXPECT_LT(written[rg], total / 2) << "RAID group " << rg << " dominates";
  }
}

// Growth immediately followed by a parallel CP: the new group gets its own
// free list and joins the per-group boundary like any other.
TEST(WriteAllocatorEngine, GrowthThenParallelCp) {
  AggregateConfig cfg;
  cfg.raid_groups = {hdd_group(16 * 1024)};
  ThreadPool pool(4);
  Aggregate agg(cfg, 3, Runtime{}.with_pool(&pool));
  FlexVolConfig vol;
  vol.file_blocks = 60'000;
  vol.vvbn_blocks = 4ull * kFlatAaBlocks;
  agg.add_volume(vol);
  ConsistencyPoint::run(agg, range(0, 20'000));

  agg.add_raid_group(hdd_group(16 * 1024));
  // Overwrites, so this CP's boundary drains frees with the new group in
  // the group list.
  ConsistencyPoint::run(agg, range(10'000, 40'000));

  EXPECT_GT(agg.raid_group(1).stats().data_blocks_written, 0u);
  EXPECT_EQ(agg.free_blocks(),
            agg.total_blocks() - 40'000u);
}

// The word-at-a-time fill against a per-bit find_free loop on the same
// state.  Walking the AAs the allocator opened, in order, and taking each
// one's free blocks (as of before the CP) one find_free at a time must
// give exactly the blocks the fill took: an AA is left only when it has
// none left.  agg_bits_scanned must count what the per-bit scan counted:
// the distance the cursor moved in every AA, plus the free bit each new
// tetris window's jump found (the take counts that bit again).  The
// demand comes in chunks that end mid-word, mid-window and mid-AA.
TEST(RgAllocator, FillRunsMatchPerBitAllocation) {
  RaidGroupConfig rg = hdd_group(1024);  // 16 tetrises of 3 x 64 blocks
  rg.aa_stripes = 128;                   // 8 AAs of two tetrises
  AggregateConfig cfg;
  cfg.raid_groups = {rg};
  Aggregate agg(cfg, 11);
  Rng rng(42);
  agg.seed_rg_occupancy(0, 0.55, rng);
  const Bitmap before = agg.activemap().metafile().bits();
  const AaLayout& layout = agg.rg_layout(0);
  const std::uint64_t bpt = agg.raid_group(0).geometry().blocks_per_tetris();

  CpStats stats;
  std::vector<Vbn> out;
  agg.begin_cp();
  const std::uint64_t want = agg.free_blocks() * 3 / 4;
  const std::uint64_t chunks[] = {1, 7, 63, 64, 65, 200, 3, 129};
  for (std::size_t i = 0; out.size() < want; ++i) {
    const std::uint64_t n = std::min(chunks[i % 8], want - out.size());
    ASSERT_TRUE(agg.allocate_pvbns(n, out, stats));
  }

  std::vector<Vbn> expected;
  std::set<std::uint64_t> windows;
  std::uint64_t scanned = 0;
  while (expected.size() < out.size()) {
    const AaId aa = layout.aa_of(out[expected.size()]);
    const Vbn end = layout.aa_end(aa);
    Vbn pos = layout.aa_begin(aa);
    const std::size_t taken_before = expected.size();
    while (expected.size() < out.size()) {
      const Vbn v = before.find_first_clear(pos, end);
      if (v == end) {
        pos = end;
        break;
      }
      expected.push_back(v);
      windows.insert(v / bpt);
      pos = v + 1;
    }
    scanned += pos - layout.aa_begin(aa);
    ASSERT_GT(expected.size(), taken_before) << "AA " << aa << " reopened";
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
        << "diverged in AA " << aa;
  }
  scanned += windows.size();
  EXPECT_EQ(out, expected);
  EXPECT_EQ(stats.agg_bits_scanned, scanned);

  // Every window is written once, its blocks marked allocated.
  agg.finish_cp(stats);
  EXPECT_EQ(stats.tetrises, windows.size());
  EXPECT_EQ(stats.blocks_written, out.size());
  for (const Vbn v : out) ASSERT_TRUE(agg.activemap().is_allocated(v));
  EXPECT_EQ(agg.rg_scoreboard(0).total_free(), agg.free_blocks());
}

// Tetris windows are whole bitmap words only when every group starts on a
// word boundary.
TEST(WriteAllocatorEngineDeathTest, UnalignedGroupBaseAborts) {
  Activemap activemap(8192);
  BlockStore topaa(TopAaFile::kRaidAgnosticBlocks);
  WriteAllocator walloc(AaSelectPolicy::kCache, 0.0, 1, activemap, topaa);
  EXPECT_DEATH(walloc.add_group(hdd_group(1024), 32),
               "RAID group base is not word-aligned");
}

}  // namespace
}  // namespace wafl
