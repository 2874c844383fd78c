#include "wafl/flexvol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace wafl {
namespace {

FlexVolConfig small_vol(AaSelectPolicy policy = AaSelectPolicy::kCache) {
  FlexVolConfig cfg;
  cfg.vvbn_blocks = 16 * 1024;
  cfg.file_blocks = 8 * 1024;
  cfg.aa_blocks = 1024;  // 16 AAs
  cfg.policy = policy;
  return cfg;
}

TEST(FlexVol, FreshVolumeAllFree) {
  FlexVol vol(0, small_vol(), 1);
  EXPECT_EQ(vol.free_blocks(), 16u * 1024u);
  EXPECT_EQ(vol.layout().aa_count(), 16u);
  EXPECT_FALSE(vol.is_mapped(0));
  EXPECT_EQ(vol.cache().size(), 16u);
}

TEST(FlexVol, AllocatesSequentiallyWithinAa) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  const Vbn a = vol.allocate_vvbn(stats);
  const Vbn b = vol.allocate_vvbn(stats);
  const Vbn c = vol.allocate_vvbn(stats);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
  EXPECT_TRUE(vol.activemap().is_allocated(a));
  EXPECT_EQ(stats.vol_pick_free_frac.count(), 1u);  // one AA checkout
  EXPECT_DOUBLE_EQ(stats.vol_pick_free_frac.mean(), 1.0);  // empty AA
}

TEST(FlexVol, NeverAllocatesSameVbnTwice) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  std::set<Vbn> seen;
  for (int i = 0; i < 5000; ++i) {
    const Vbn v = vol.allocate_vvbn(stats);
    EXPECT_TRUE(seen.insert(v).second) << "duplicate vvbn " << v;
  }
}

TEST(FlexVol, RemapTracksBothMaps) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  const Vbn vvbn = vol.allocate_vvbn(stats);
  const Vbn freed = vol.remap(5, vvbn, /*pvbn=*/777);
  EXPECT_EQ(freed, kInvalidVbn);  // first write frees nothing
  EXPECT_TRUE(vol.is_mapped(5));
  EXPECT_EQ(vol.vvbn_of(5), vvbn);
  EXPECT_EQ(vol.pvbn_of(5), 777u);

  const Vbn vvbn2 = vol.allocate_vvbn(stats);
  const Vbn freed2 = vol.remap(5, vvbn2, 888);
  EXPECT_EQ(freed2, 777u);  // overwrite frees the old physical block
  EXPECT_EQ(vol.vvbn_of(5), vvbn2);
  EXPECT_EQ(vol.pvbn_of(5), 888u);
}

TEST(FlexVol, OverwriteFreesOldVvbnAtCpBoundary) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  const Vbn vvbn = vol.allocate_vvbn(stats);
  vol.remap(0, vvbn, 1);
  const Vbn vvbn2 = vol.allocate_vvbn(stats);
  vol.remap(0, vvbn2, 2);
  // Old vvbn still held until finish_cp (COW safety).
  EXPECT_TRUE(vol.activemap().is_allocated(vvbn));
  EXPECT_EQ(vol.free_blocks(), 16u * 1024u - 2u);
  vol.finish_cp(stats);
  EXPECT_FALSE(vol.activemap().is_allocated(vvbn));
  EXPECT_TRUE(vol.activemap().is_allocated(vvbn2));
  EXPECT_EQ(vol.free_blocks(), 16u * 1024u - 1u);
}

TEST(FlexVol, FinishCpKeepsCacheAndScoresConsistent) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  for (std::uint64_t l = 0; l < 3000; ++l) {
    const Vbn vvbn = vol.allocate_vvbn(stats);
    vol.remap(l, vvbn, l + 10);
  }
  vol.finish_cp(stats);
  EXPECT_TRUE(vol.cache().validate());
  EXPECT_EQ(vol.scoreboard().total_free(), vol.free_blocks());
  // 3000 blocks consumed.
  EXPECT_EQ(vol.free_blocks(), 16u * 1024u - 3000u);
}

TEST(FlexVol, CacheModeFillsEmptiestFirstAfterAging) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  // Fill the whole file once.
  for (std::uint64_t l = 0; l < 8 * 1024; ++l) {
    vol.remap(l, vol.allocate_vvbn(stats), l);
  }
  vol.finish_cp(stats);
  // Overwrite a clustered range so one region frees up massively.
  for (std::uint64_t l = 0; l < 900; ++l) {
    vol.remap(l, vol.allocate_vvbn(stats), l);
  }
  vol.finish_cp(stats);

  // The allocator first drains the AA its cursor is already filling; the
  // next fresh checkout must then come from the best populated score range.
  CpStats fresh;
  Vbn v = vol.allocate_vvbn(fresh);
  const AaId cursor_before = vol.layout().aa_of(v);
  AaId chosen = cursor_before;
  while (chosen == cursor_before) {
    v = vol.allocate_vvbn(fresh);
    chosen = vol.layout().aa_of(v);
  }
  AaScore best = 0;
  for (AaId aa = 0; aa < vol.scoreboard().aa_count(); ++aa) {
    if (aa == chosen || aa == cursor_before) continue;
    best = std::max(best, vol.scoreboard().score(aa));
  }
  // HBPS guarantee: within one bin width of the true best.
  const std::uint32_t bin_width = vol.cache().config().bin_width;
  EXPECT_GE(vol.scoreboard().score(chosen) + bin_width, best);
}

TEST(FlexVol, RandomPolicyStillCorrect) {
  FlexVol vol(0, small_vol(AaSelectPolicy::kRandom), 99);
  CpStats stats;
  std::set<Vbn> seen;
  for (std::uint64_t l = 0; l < 4000; ++l) {
    const Vbn vvbn = vol.allocate_vvbn(stats);
    EXPECT_TRUE(seen.insert(vvbn).second);
    vol.remap(l, vvbn, l);
  }
  vol.finish_cp(stats);
  EXPECT_EQ(vol.free_blocks(), 16u * 1024u - 4000u);
}

TEST(FlexVol, MetafileTouchAccounting) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  // 100 colocated allocations touch exactly one 32 Ki-bit metafile block.
  for (std::uint64_t l = 0; l < 100; ++l) {
    vol.remap(l, vol.allocate_vvbn(stats), l);
  }
  vol.finish_cp(stats);
  EXPECT_EQ(stats.vol_meta_blocks, 1u);
  EXPECT_GE(stats.meta_flush_blocks, 1u);
}

TEST(FlexVol, TopAaPersistedEachActiveCp) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  vol.remap(0, vol.allocate_vvbn(stats), 0);
  vol.finish_cp(stats);
  TopAaFile topaa(vol.store(),
                  vol.store().capacity_blocks() -
                      TopAaFile::kRaidAgnosticBlocks);
  EXPECT_TRUE(topaa.load_raid_agnostic().has_value());
}

TEST(FlexVol, IdleCpIsFree) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  vol.finish_cp(stats);
  EXPECT_EQ(stats.meta_flush_blocks, 0u);
  EXPECT_EQ(stats.vol_meta_blocks, 0u);
  EXPECT_EQ(vol.free_blocks(), 16u * 1024u);  // no frees to apply
}

TEST(FlexVol, MountFromTopAaRestoresCache) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  for (std::uint64_t l = 0; l < 2000; ++l) {
    vol.remap(l, vol.allocate_vvbn(stats), l);
  }
  vol.finish_cp(stats);

  vol.store().reset_stats();
  EXPECT_TRUE(vol.mount_from_topaa());
  // Constant-cost gate: exactly the two TopAA blocks.
  EXPECT_EQ(vol.store().stats().block_reads, TopAaFile::kRaidAgnosticBlocks);
  EXPECT_TRUE(vol.cache().validate());
}

TEST(FlexVol, MountFallsBackOnCorruptTopAa) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  vol.remap(0, vol.allocate_vvbn(stats), 0);
  vol.finish_cp(stats);
  const std::uint64_t topaa_block =
      vol.store().capacity_blocks() - TopAaFile::kRaidAgnosticBlocks;
  vol.store().corrupt(topaa_block, 5);
  vol.store().reset_stats();
  EXPECT_FALSE(vol.mount_from_topaa());
  // Fallback read the whole bitmap metafile.
  EXPECT_GT(vol.store().stats().block_reads,
            TopAaFile::kRaidAgnosticBlocks);
  // And the rebuilt state still allocates correctly.
  CpStats fresh;
  const Vbn v = vol.allocate_vvbn(fresh);
  EXPECT_TRUE(vol.activemap().is_allocated(v));
}

TEST(FlexVol, ScanRebuildMatchesLiveState) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  for (std::uint64_t l = 0; l < 1500; ++l) {
    vol.remap(l, vol.allocate_vvbn(stats), l);
  }
  vol.finish_cp(stats);
  const std::uint64_t free_before = vol.free_blocks();

  vol.scan_rebuild();
  EXPECT_EQ(vol.free_blocks(), free_before);
  EXPECT_EQ(vol.scoreboard().total_free(), free_before);
  EXPECT_TRUE(vol.cache().validate());
}

// cp_remap's word runs against per-block allocation.  Two volumes share
// one fragmented history; one remaps a dirty list through cp_remap in
// chunks that end mid-word and mid-AA, the other block by block through
// allocate_vvbn() + remap().  AAs of 100 blocks, and a last AA of 30,
// end mid-word.  Both must take the blocks a per-bit find_free loop over
// the pre-CP bitmap takes, in the AAs the allocator opened, count the
// same vol_bits_scanned (the distance the cursor moved), and retire each
// AA at the same point.
TEST(FlexVol, VvbnRunsMatchPerBitAllocation) {
  FlexVolConfig cfg;
  cfg.vvbn_blocks = 1030;
  cfg.file_blocks = 700;
  cfg.aa_blocks = 100;
  auto aged = [&cfg] {
    auto vol = std::make_unique<FlexVol>(0, cfg, 7);
    CpStats stats;
    for (std::uint64_t l = 0; l < cfg.file_blocks; ++l) {
      vol->remap(l, vol->allocate_vvbn(stats), l);
    }
    vol->finish_cp(stats);
    Rng rng(3);
    for (std::uint64_t l = 0; l < cfg.file_blocks; ++l) {
      if (rng.chance(0.45)) vol->remap(l, vol->allocate_vvbn(stats), l);
    }
    vol->finish_cp(stats);
    vol->scan_rebuild();  // start the test CP with no open AA
    return vol;
  };
  const auto runs = aged();
  const auto blocks = aged();
  const Bitmap before = runs->activemap().metafile().bits();
  const AaLayout& layout = runs->layout();

  const std::size_t n = 300;
  const std::size_t chunks[] = {1, 5, 63, 64, 65, 100, 2};
  ASSERT_GE(runs->free_blocks(), n);
  std::vector<DirtyBlock> dirty;
  std::vector<Vbn> pvbns;
  for (std::uint64_t i = 0; i < n; ++i) {
    dirty.push_back({0, (i * 3) % cfg.file_blocks});
    pvbns.push_back(5000 + i);
  }
  // Block by block first, recording the cursor after every block.
  CpStats run_stats, block_stats;
  std::vector<Vbn> block_vvbns, block_freed;
  std::vector<std::optional<AaId>> cursor_after;
  for (std::size_t i = 0; i < n; ++i) {
    const Vbn vvbn = blocks->allocate_vvbn(block_stats);
    block_vvbns.push_back(vvbn);
    const Vbn freed = blocks->remap(dirty[i].logical, vvbn, pvbns[i]);
    if (freed != kInvalidVbn) block_freed.push_back(freed);
    cursor_after.push_back(blocks->cursor_aa());
  }

  // Then in runs, in chunks that also stop right after each block that
  // ends its AA, where the per-bit loop retires the AA at once.
  std::set<std::size_t> stops;
  for (std::size_t at = 0, k = 0; at < n; at += chunks[k++ % 7]) {
    stops.insert(at);
  }
  std::size_t aa_ends = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Vbn v = block_vvbns[i];
    if (v + 1 == layout.aa_end(layout.aa_of(v))) {
      stops.insert(i + 1);
      ++aa_ends;
    }
  }
  ASSERT_GT(aa_ends, 0u);
  stops.insert(n);
  std::vector<Vbn> run_vvbns(n), run_freed;
  for (auto it = stops.begin(); std::next(it) != stops.end(); ++it) {
    const std::size_t at = *it;
    const std::size_t len = *std::next(it) - at;
    runs->cp_remap(std::span(dirty).subspan(at, len),
                   std::span(pvbns).subspan(at, len),
                   std::span(run_vvbns).subspan(at, len), run_freed,
                   run_stats);
    // Retire point: the cursor closes exactly when the last vvbn taken
    // was its AA's last block.
    const Vbn last = run_vvbns[at + len - 1];
    const AaId last_aa = layout.aa_of(last);
    const bool at_aa_end = last + 1 == layout.aa_end(last_aa);
    ASSERT_EQ(runs->cursor_aa().has_value(), !at_aa_end)
        << "block " << at + len;
    if (!at_aa_end) {
      EXPECT_EQ(*runs->cursor_aa(), last_aa);
    }
    ASSERT_EQ(runs->cursor_aa(), cursor_after[at + len - 1])
        << "block " << at + len;
  }
  EXPECT_EQ(run_vvbns, block_vvbns);
  EXPECT_EQ(run_freed, block_freed);
  EXPECT_EQ(run_stats.vol_bits_scanned, block_stats.vol_bits_scanned);
  EXPECT_EQ(run_stats.vol_pick_free_frac.count(),
            block_stats.vol_pick_free_frac.count());
  EXPECT_EQ(run_stats.hbps_replenishes, block_stats.hbps_replenishes);
  // Same first-touch order in the metafile's dirty list and the same
  // pending score deltas.
  const auto dirty_of = [](const FlexVol& v) {
    const auto list = v.activemap().metafile().dirty_list();
    return std::vector<std::uint64_t>(list.begin(), list.end());
  };
  EXPECT_EQ(dirty_of(*runs), dirty_of(*blocks));
  for (AaId aa = 0; aa < layout.aa_count(); ++aa) {
    EXPECT_EQ(runs->scoreboard().pending_delta(aa),
              blocks->scoreboard().pending_delta(aa));
  }
  EXPECT_EQ(runs->activemap().metafile().bits().words(),
            blocks->activemap().metafile().bits().words());

  // The per-bit find_free loop over the AAs the allocator opened.
  std::vector<Vbn> expected;
  std::uint64_t scanned = 0;
  while (expected.size() < n) {
    const AaId aa = layout.aa_of(run_vvbns[expected.size()]);
    const Vbn end = layout.aa_end(aa);
    Vbn pos = layout.aa_begin(aa);
    const std::size_t taken_before = expected.size();
    while (expected.size() < n) {
      const Vbn v = before.find_first_clear(pos, end);
      if (v == end) {
        pos = end;
        break;
      }
      expected.push_back(v);
      pos = v + 1;
    }
    scanned += pos - layout.aa_begin(aa);
    ASSERT_GT(expected.size(), taken_before) << "AA " << aa << " reopened";
    ASSERT_TRUE(
        std::equal(expected.begin(), expected.end(), run_vvbns.begin()))
        << "diverged in AA " << aa;
  }
  EXPECT_EQ(run_vvbns, expected);
  EXPECT_EQ(run_stats.vol_bits_scanned, scanned);

  runs->finish_cp(run_stats);
  blocks->finish_cp(block_stats);
  EXPECT_TRUE(runs->cache().validate());
  EXPECT_EQ(runs->scoreboard().total_free(), runs->free_blocks());
  for (AaId aa = 0; aa < layout.aa_count(); ++aa) {
    EXPECT_EQ(runs->scoreboard().score(aa), blocks->scoreboard().score(aa));
  }
}

TEST(FlexVol, MapEntriesRoundTripAtTheirBounds) {
  // The maps hold 32-bit entries.  An unmapped entry must still read
  // kInvalidVbn, and the volume's largest vvbn and the largest pvbn an
  // entry holds (one below the sentinel) must read back exactly.
  const FlexVolConfig cfg = small_vol();
  FlexVol vol(0, cfg, 1);
  const std::uint64_t l = cfg.file_blocks - 1;
  const Vbn last_vvbn = cfg.vvbn_blocks - 1;
  const Vbn top_pvbn = kInvalidPackedVbn - 1;
  EXPECT_EQ(vol.vvbn_of(l), kInvalidVbn);
  EXPECT_EQ(vol.pvbn_of(l), kInvalidVbn);
  EXPECT_EQ(vol.pvbn_of_vvbn(last_vvbn), kInvalidVbn);
  const SnapId before = vol.create_snapshot();
  EXPECT_EQ(vol.snapshot_vvbn_of(before, l), kInvalidVbn);

  // remap() binds only allocated vvbns: allocate until the allocator hands
  // out the last one (at most the whole volume).
  CpStats stats;
  std::uint64_t taken = 1;
  while (vol.allocate_vvbn(stats) != last_vvbn) {
    ASSERT_LT(taken++, cfg.vvbn_blocks);
  }
  EXPECT_EQ(vol.pvbn_of_vvbn(last_vvbn), kInvalidVbn);

  EXPECT_EQ(vol.remap(l, last_vvbn, top_pvbn), kInvalidVbn);
  EXPECT_EQ(vol.vvbn_of(l), last_vvbn);
  EXPECT_EQ(vol.pvbn_of(l), top_pvbn);
  EXPECT_EQ(vol.pvbn_of_vvbn(last_vvbn), top_pvbn);
  const SnapId after = vol.create_snapshot();
  EXPECT_EQ(vol.snapshot_vvbn_of(after, l), last_vvbn);
  EXPECT_EQ(vol.snapshot_vvbn_of(before, l), kInvalidVbn);
  EXPECT_EQ(vol.vvbn_of(0), kInvalidVbn);
  EXPECT_EQ(vol.pvbn_of_vvbn(0), kInvalidVbn);

  EXPECT_EQ(vol.relocate(last_vvbn, 0), top_pvbn);
  EXPECT_EQ(vol.pvbn_of(l), 0u);
}

TEST(FlexVolDeathTest, OversizedVolumeAbortsBeforeAllocating) {
  FlexVolConfig cfg = small_vol();
  cfg.vvbn_blocks = kInvalidPackedVbn;
  EXPECT_DEATH(FlexVol(0, cfg, 1), "32-bit vvbn space");
}

TEST(FlexVolDeathTest, PvbnAtTheSentinelAborts) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  const Vbn vvbn = vol.allocate_vvbn(stats);
  EXPECT_DEATH(vol.remap(0, vvbn, kInvalidPackedVbn),
               "does not fit a 32-bit entry");
}

// A mapped vvbn must be allocated, or the allocator could hand it out
// again while the block map still points at it.
TEST(FlexVolDeathTest, RemapToUnallocatedVvbnAborts) {
  FlexVol vol(0, small_vol(), 1);
  CpStats stats;
  const Vbn vvbn = vol.allocate_vvbn(stats);
  EXPECT_DEATH(vol.remap(0, vvbn + 1, 7), "unallocated vvbn");
  vol.remap(0, vvbn, 7);
  EXPECT_DEATH(vol.remap(0, vvbn + 1, 8), "unallocated vvbn");
}

// A vvbn freed in a CP stays allocated until that CP's finish_cp(), so the
// allocator cannot reuse it within the CP: a volume whose every other vvbn
// is in use runs out of space even with frees pending.
TEST(FlexVolDeathTest, FreedVvbnNotReusableWithinCp) {
  FlexVolConfig cfg;
  cfg.vvbn_blocks = 128;
  cfg.file_blocks = 64;
  cfg.aa_blocks = 64;
  FlexVol vol(0, cfg, 1);
  CpStats stats;
  std::vector<Vbn> first;
  for (std::uint64_t l = 0; l < cfg.file_blocks; ++l) {
    first.push_back(vol.allocate_vvbn(stats));
    vol.remap(l, first.back(), l);
  }
  vol.finish_cp(stats);
  for (std::uint64_t l = 0; l < cfg.file_blocks; ++l) {
    const Vbn v = vol.allocate_vvbn(stats);
    EXPECT_EQ(std::count(first.begin(), first.end(), v), 0) << "vvbn " << v;
    vol.remap(l, v, l);
  }
  EXPECT_EQ(vol.free_blocks(), 0u);
  EXPECT_DEATH(vol.allocate_vvbn(stats), "out of space");

  // After the boundary the freed vvbns are allocatable again.
  vol.finish_cp(stats);
  EXPECT_EQ(vol.free_blocks(), cfg.file_blocks);
  const Vbn reused = vol.allocate_vvbn(stats);
  EXPECT_EQ(std::count(first.begin(), first.end(), reused), 1);
}

}  // namespace
}  // namespace wafl
