#include "core/scoreboard.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace wafl {
namespace {

TEST(AaScoreBoard, EmptyFileSystemScoresAreCapacities) {
  const AaLayout l = AaLayout::flat(0, 2500, 1024);
  AaScoreBoard board(l);
  EXPECT_EQ(board.aa_count(), 3u);
  EXPECT_EQ(board.score(0), 1024u);
  EXPECT_EQ(board.score(1), 1024u);
  EXPECT_EQ(board.score(2), 452u);
  EXPECT_EQ(board.total_free(), 2500u);
}

TEST(AaScoreBoard, ScanConstructorMatchesMetafile) {
  const AaLayout l = AaLayout::flat(0, 4096, 1024);
  BitmapMetafile mf(4096);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const Vbn v = rng.below(4096);
    if (!mf.test(v)) mf.set_allocated(v);
  }
  AaScoreBoard board(l, mf);
  for (AaId aa = 0; aa < 4; ++aa) {
    EXPECT_EQ(board.score(aa), mf.free_in_range(aa * 1024, (aa + 1) * 1024));
  }
  EXPECT_EQ(board.total_free(), mf.total_free());
}

TEST(AaScoreBoard, ScanWithBaseOffset) {
  // The layout's VBN range sits at an offset inside a larger metafile.
  const AaLayout l = AaLayout::flat(2048, 2048, 1024);
  BitmapMetafile mf(8192);
  mf.set_allocated(2048);
  mf.set_allocated(2049);
  mf.set_allocated(3072);
  AaScoreBoard board(l, mf);
  EXPECT_EQ(board.score(0), 1022u);
  EXPECT_EQ(board.score(1), 1023u);
}

TEST(AaScoreBoard, DeltasAreBatchedUntilCpBoundary) {
  const AaLayout l = AaLayout::flat(0, 2048, 1024);
  AaScoreBoard board(l);
  board.note_alloc(0);
  board.note_alloc(1);
  board.note_free(1030);  // hypothetical free in AA 1 (scores clamp later)
  // Scores unchanged until the boundary (§3.3 delayed batching).
  EXPECT_EQ(board.score(0), 1024u);
  EXPECT_EQ(board.pending_delta(0), -2);
  EXPECT_EQ(board.pending_delta(1), 1);
}

TEST(AaScoreBoard, ApplyProducesChangeRecords) {
  const AaLayout l = AaLayout::flat(0, 2048, 1024);
  AaScoreBoard board(l);
  board.note_alloc(0);
  board.note_alloc(5);
  board.note_alloc(1024);
  const auto changes = board.apply_cp_deltas();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].aa, 0u);
  EXPECT_EQ(changes[0].old_score, 1024u);
  EXPECT_EQ(changes[0].new_score, 1022u);
  EXPECT_EQ(changes[1].aa, 1u);
  EXPECT_EQ(changes[1].new_score, 1023u);
  EXPECT_EQ(board.score(0), 1022u);
  // Deltas cleared.
  EXPECT_EQ(board.pending_delta(0), 0);
  EXPECT_TRUE(board.apply_cp_deltas().empty());
}

TEST(AaScoreBoard, CancellingDeltasProduceNoChange) {
  const AaLayout l = AaLayout::flat(0, 1024, 1024);
  AaScoreBoard board(l);
  board.note_alloc(0);
  board.note_free(1);
  EXPECT_TRUE(board.apply_cp_deltas().empty());
  EXPECT_EQ(board.score(0), 1024u);
}

TEST(AaScoreBoard, MultipleCpCycles) {
  const AaLayout l = AaLayout::flat(0, 1024, 1024);
  AaScoreBoard board(l);
  for (int cp = 0; cp < 10; ++cp) {
    board.note_alloc(static_cast<Vbn>(cp));
    const auto changes = board.apply_cp_deltas();
    ASSERT_EQ(changes.size(), 1u);
    EXPECT_EQ(changes[0].new_score, 1024u - static_cast<AaScore>(cp) - 1);
  }
  EXPECT_EQ(board.score(0), 1014u);
}

TEST(AaScoreBoard, RescanOverridesPendingDelta) {
  const AaLayout l = AaLayout::flat(0, 1024, 1024);
  BitmapMetafile mf(1024);
  AaScoreBoard board(l, mf);
  board.note_alloc(0);
  mf.set_allocated(0);
  mf.set_allocated(1);
  board.rescan(0, mf);
  EXPECT_EQ(board.score(0), 1022u);
  // The pending delta was discarded; applying changes nothing.
  EXPECT_TRUE(board.apply_cp_deltas().empty());
  EXPECT_EQ(board.score(0), 1022u);
}

TEST(AaScoreBoardDeathTest, OverflowingScoreAsserts) {
  const AaLayout l = AaLayout::flat(0, 1024, 1024);
  AaScoreBoard board(l);
  board.note_free(0);  // free on an already-empty AA
  EXPECT_DEATH(board.apply_cp_deltas(), "out of range");
}

}  // namespace
}  // namespace wafl
