#include "bitmap/activemap.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wafl/cp_stats.hpp"
#include "wafl/flexvol.hpp"

namespace wafl {
namespace {

TEST(Activemap, AllocateIsImmediate) {
  Activemap am(1000);
  EXPECT_FALSE(am.is_allocated(10));
  am.allocate(10);
  EXPECT_TRUE(am.is_allocated(10));
  EXPECT_EQ(am.total_free(), 999u);
}

// Activemap applies frees at once; the CP-boundary deferral (§3.3) lives
// with its owners.  The cases below check a FlexVol's activemap across CP
// boundaries; Aggregate.DeferredFreesApplyAtFinish checks the pvbn side.
constexpr std::uint64_t kVolBlocks = 1024;

FlexVolConfig one_aa_vol() {
  FlexVolConfig cfg;
  cfg.vvbn_blocks = kVolBlocks;
  cfg.file_blocks = 64;
  cfg.aa_blocks = 1024;
  return cfg;
}

TEST(Activemap, DeferredFreeAppliesAtBoundary) {
  FlexVol vol(0, one_aa_vol(), 1);
  const Activemap& am = vol.activemap();
  CpStats stats;
  const Vbn a = vol.allocate_vvbn(stats);
  const Vbn b = vol.allocate_vvbn(stats);
  vol.remap(0, a, 100);
  vol.remap(1, b, 101);
  const Vbn c = vol.allocate_vvbn(stats);
  vol.remap(0, c, 102);  // defers the free of a
  // Deferred: the bit stays set until the CP boundary, so the block cannot
  // be reused within the same CP (COW safety).
  EXPECT_TRUE(am.is_allocated(a));
  EXPECT_EQ(am.total_free(), kVolBlocks - 3);
  vol.finish_cp(stats);
  EXPECT_FALSE(am.is_allocated(a));
  EXPECT_TRUE(am.is_allocated(b));
  EXPECT_TRUE(am.is_allocated(c));
  EXPECT_EQ(am.total_free(), kVolBlocks - 2);
}

TEST(Activemap, ApplyWithNothingPending) {
  FlexVol vol(0, one_aa_vol(), 1);
  const Activemap& am = vol.activemap();
  CpStats stats;
  std::vector<Vbn> written;
  for (std::uint64_t l = 0; l < 8; ++l) {
    written.push_back(vol.allocate_vvbn(stats));
    vol.remap(l, written.back(), l);
  }
  // First writes free nothing: the boundary keeps every bit.
  vol.finish_cp(stats);
  for (const Vbn v : written) EXPECT_TRUE(am.is_allocated(v)) << v;
  EXPECT_EQ(am.total_free(), kVolBlocks - written.size());
  vol.finish_cp(stats);  // an idle CP changes nothing either
  EXPECT_EQ(am.total_free(), kVolBlocks - written.size());
}

TEST(Activemap, MultipleCpCycles) {
  FlexVol vol(0, one_aa_vol(), 1);
  const Activemap& am = vol.activemap();
  CpStats stats;
  Vbn prev = vol.allocate_vvbn(stats);
  vol.remap(0, prev, 0);
  vol.finish_cp(stats);
  // One overwrite per CP frees exactly the previous CP's vvbn, CP after CP.
  for (int cp = 0; cp < 5; ++cp) {
    SCOPED_TRACE("cp " + std::to_string(cp));
    const Vbn next = vol.allocate_vvbn(stats);
    vol.remap(0, next, 1 + static_cast<Vbn>(cp));
    EXPECT_TRUE(am.is_allocated(prev));
    vol.finish_cp(stats);
    EXPECT_FALSE(am.is_allocated(prev));
    EXPECT_TRUE(am.is_allocated(next));
    EXPECT_EQ(am.total_free(), kVolBlocks - 1);
    prev = next;
  }
  EXPECT_EQ(vol.scoreboard().total_free(), am.total_free());
}

}  // namespace
}  // namespace wafl
