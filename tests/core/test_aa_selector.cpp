#include "core/aa_selector.hpp"

#include <gtest/gtest.h>

#include "core/topaa.hpp"
#include "storage/block_store.hpp"

namespace wafl {
namespace {

/// Allocates every block of `aa` and folds it into the board's scores.
void fill_aa(const AaLayout& l, AaScoreBoard& board, AaId aa) {
  for (Vbn v = l.aa_begin(aa); v < l.aa_end(aa); ++v) board.note_alloc(v);
  board.apply_cp_deltas();
}

TEST(AaSelectRandom, PicksOnlyAasWithFreeSpace) {
  const AaLayout l = AaLayout::flat(0, 4 * 1024, 1024);
  AaScoreBoard board(l);
  // Empty out AAs 0..2; only AA 3 has free space.
  for (AaId aa = 0; aa < 3; ++aa) fill_aa(l, board, aa);
  AaSelector sel(l, board, AaCacheKind::kHbps, AaSelectPolicy::kRandom, 5);
  auto live_free = [&](AaId aa) { return board.score(aa); };
  RunningStat picks;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sel.ensure(live_free, picks, nullptr));
    EXPECT_EQ(sel.open_aa(), 3u);
    EXPECT_EQ(sel.pos(), l.aa_begin(3));
    sel.retire();
  }
  EXPECT_EQ(picks.count(), 20u);
  // kRandom keeps no retired list.
  EXPECT_FALSE(sel.has_retired());

  // Once every AA is full, neither the probes nor the sweep find one.
  fill_aa(l, board, 3);
  EXPECT_FALSE(sel.ensure(live_free, picks, nullptr));
  EXPECT_EQ(sel.open_aa(), kInvalidAaId);
}

TEST(AaSelector, CacheRetiresStaleEntriesAndReadmitsAtBoundary) {
  const AaLayout l = AaLayout::flat(0, 4 * 1024, 1024);
  AaScoreBoard board(l);
  AaSelector sel(l, board, AaCacheKind::kMaxHeap, AaSelectPolicy::kCache, 1);
  // AA 0 looks best to the heap but has nothing left live.
  auto live_free = [](AaId aa) { return aa == 0 ? 0u : 1u; };
  RunningStat picks;
  ASSERT_TRUE(sel.ensure(live_free, picks, nullptr));
  EXPECT_EQ(sel.open_aa(), 1u);
  EXPECT_TRUE(sel.has_retired());
  EXPECT_EQ(sel.cache().size(), 2u);
  sel.retire();
  sel.apply_cp();
  EXPECT_FALSE(sel.has_retired());
  EXPECT_EQ(sel.cache().size(), 4u);
  EXPECT_TRUE(sel.cache().validate());
}

TEST(AaSelector, RebuildRetracksTheOpenHbpsAa) {
  const AaLayout l = AaLayout::flat(0, 4 * 1024, 1024);
  AaScoreBoard board(l);
  AaSelector sel(l, board, AaCacheKind::kHbps, AaSelectPolicy::kCache, 1);
  auto live_free = [&](AaId aa) { return board.score(aa); };
  RunningStat picks;
  ASSERT_TRUE(sel.ensure(live_free, picks, nullptr));
  const AaId open = sel.open_aa();
  EXPECT_TRUE(sel.hbps().is_checked_out(open));
  EXPECT_EQ(sel.hbps().size(), 3u);

  // The TopAA image carries the open AA: it does not survive a failover.
  BlockStore store(TopAaFile::kRaidAgnosticBlocks);
  TopAaFile file(store, 0);
  file.commit(*sel.encode_topaa());
  ASSERT_TRUE(file.load_raid_agnostic().has_value());
  EXPECT_EQ(file.load_raid_agnostic()->size(), 4u);

  sel.rebuild();
  EXPECT_EQ(sel.open_aa(), kInvalidAaId);
  EXPECT_FALSE(sel.hbps().is_checked_out(open));
  EXPECT_EQ(sel.hbps().size(), 4u);
  EXPECT_TRUE(sel.hbps().validate());
}

}  // namespace
}  // namespace wafl
