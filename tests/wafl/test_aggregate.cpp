#include "wafl/aggregate.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/thread_pool.hpp"
#include "wafl/consistency_point.hpp"

namespace wafl {
namespace {

AggregateConfig two_rg_hdd(AaSelectPolicy policy = AaSelectPolicy::kCache) {
  AggregateConfig cfg;
  RaidGroupConfig rg;
  rg.data_devices = 3;
  rg.parity_devices = 1;
  rg.device_blocks = 16 * 1024;
  rg.media.type = MediaType::kHdd;
  rg.aa_stripes = 1024;  // 16 AAs of 3072 blocks per group
  cfg.raid_groups = {rg, rg};
  cfg.policy = policy;
  return cfg;
}

TEST(Aggregate, GeometrySetup) {
  Aggregate agg(two_rg_hdd(), 1);
  EXPECT_EQ(agg.raid_group_count(), 2u);
  EXPECT_EQ(agg.total_blocks(), 2u * 3u * 16u * 1024u);
  EXPECT_EQ(agg.free_blocks(), agg.total_blocks());
  EXPECT_EQ(agg.rg_base(0), 0u);
  EXPECT_EQ(agg.rg_base(1), 3u * 16u * 1024u);
  EXPECT_EQ(agg.rg_layout(0).aa_count(), 16u);
  EXPECT_EQ(agg.rg_cache(0).size(), 16u);
}

TEST(Aggregate, AaSizingPolicyAppliedWhenNotOverridden) {
  AggregateConfig cfg = two_rg_hdd();
  cfg.raid_groups[0].aa_stripes.reset();
  cfg.raid_groups[1].aa_stripes.reset();
  // Default HDD sizing: 4096 stripes => 16384/4096 = 4 AAs per group.
  Aggregate agg(cfg, 1);
  EXPECT_EQ(agg.rg_layout(0).aa_count(), 4u);
  EXPECT_EQ(agg.rg_layout(0).aa_blocks(), 4096u * 3u);
}

TEST(Aggregate, AllocatesUniquePvbns) {
  Aggregate agg(two_rg_hdd(), 1);
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  ASSERT_TRUE(agg.allocate_pvbns(10'000, out, stats));
  ASSERT_EQ(out.size(), 10'000u);
  std::set<Vbn> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), out.size());
  for (const Vbn v : out) {
    EXPECT_LT(v, agg.total_blocks());
  }
}

TEST(Aggregate, RoundRobinSpreadsAcrossGroups) {
  Aggregate agg(two_rg_hdd(), 1);
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  ASSERT_TRUE(agg.allocate_pvbns(6000, out, stats));
  CpStats finish;
  agg.finish_cp(finish);

  const auto& s0 = agg.raid_group(0).stats();
  const auto& s1 = agg.raid_group(1).stats();
  EXPECT_GT(s0.data_blocks_written, 0u);
  EXPECT_GT(s1.data_blocks_written, 0u);
  // On an empty aggregate, the split is essentially even.
  const auto hi = std::max(s0.data_blocks_written, s1.data_blocks_written);
  const auto lo = std::min(s0.data_blocks_written, s1.data_blocks_written);
  EXPECT_LT(hi - lo, 400u);
}

TEST(Aggregate, EmptyAggregateWritesFullStripes) {
  Aggregate agg(two_rg_hdd(), 1);
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  // Exactly 10 tetrises worth per group.
  const std::uint64_t blocks = 2 * 10 * 64 * 3;
  ASSERT_TRUE(agg.allocate_pvbns(blocks, out, stats));
  CpStats finish;
  agg.finish_cp(finish);
  CpStats total = stats;
  total.merge(finish);
  EXPECT_GT(total.full_stripes, 0u);
  EXPECT_EQ(total.partial_stripes, 0u);
  EXPECT_EQ(total.parity_read_blocks, 0u);
  EXPECT_EQ(total.blocks_written, blocks);
}

TEST(Aggregate, BlocksMarkedAllocatedAfterFinish) {
  Aggregate agg(two_rg_hdd(), 1);
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  ASSERT_TRUE(agg.allocate_pvbns(100, out, stats));
  CpStats finish;
  agg.finish_cp(finish);
  for (const Vbn v : out) {
    EXPECT_TRUE(agg.activemap().is_allocated(v));
  }
  EXPECT_EQ(agg.free_blocks(), agg.total_blocks() - 100);
}

TEST(Aggregate, DeferredFreesApplyAtFinish) {
  Aggregate agg(two_rg_hdd(), 1);
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  ASSERT_TRUE(agg.allocate_pvbns(100, out, stats));
  CpStats finish;
  agg.finish_cp(finish);

  agg.begin_cp();
  for (int i = 0; i < 50; ++i) {
    agg.defer_free_pvbn(out[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(agg.free_blocks(), agg.total_blocks() - 100);  // not yet
  CpStats finish2;
  agg.finish_cp(finish2);
  EXPECT_EQ(agg.free_blocks(), agg.total_blocks() - 50);
  EXPECT_EQ(finish2.blocks_freed, 50u);
}

TEST(Aggregate, AddRaidGroupWithPendingFreesAborts) {
  // Growth happens between CPs: a free still waiting on its group's list
  // for the CP boundary makes add_raid_group fail fast.
  Aggregate agg(two_rg_hdd(), 1);
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  ASSERT_TRUE(agg.allocate_pvbns(10, out, stats));
  agg.finish_cp(stats);
  agg.defer_free_pvbn(out.back());
  const RaidGroupConfig rg = two_rg_hdd().raid_groups[0];
  EXPECT_DEATH(agg.add_raid_group(rg), "add_raid_group during a CP");
  // Once the boundary has applied the free, the group can be added.
  agg.finish_cp(stats);
  EXPECT_EQ(agg.add_raid_group(rg), 2u);
}

TEST(Aggregate, DeferFreeOfFreeBlockAborts) {
  Aggregate agg(two_rg_hdd(), 1);
  EXPECT_DEATH(agg.defer_free_pvbn(5), "deferring free of a free block");
}

TEST(Aggregate, ScoreboardsAndHeapsStayConsistent) {
  Aggregate agg(two_rg_hdd(), 1);
  for (int cp = 0; cp < 5; ++cp) {
    agg.begin_cp();
    CpStats stats;
    std::vector<Vbn> out;
    ASSERT_TRUE(agg.allocate_pvbns(3000, out, stats));
    // Free some of what we just wrote next CP.
    CpStats finish;
    agg.finish_cp(finish);
    agg.begin_cp();
    for (std::size_t i = 0; i < out.size(); i += 2) {
      agg.defer_free_pvbn(out[i]);
    }
    CpStats finish2;
    agg.finish_cp(finish2);
  }
  for (RaidGroupId rg = 0; rg < 2; ++rg) {
    EXPECT_TRUE(agg.rg_cache(rg).validate());
    // The scoreboard's total must match the activemap's view of the RG
    // range.
    const auto& layout = agg.rg_layout(rg);
    const std::uint64_t free_in_rg =
        agg.activemap().metafile().free_in_range(
            layout.base(), layout.base() + layout.total_blocks());
    EXPECT_EQ(agg.rg_scoreboard(rg).total_free(), free_in_rg);
  }
}

TEST(Aggregate, SkipThresholdBiasesAwayFromFragmentedGroup) {
  AggregateConfig cfg = two_rg_hdd();
  cfg.rg_skip_free_fraction = 0.4;
  Aggregate agg(cfg, 1);

  // Nearly fill the whole aggregate so no pristine AA remains anywhere.
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> all;
  ASSERT_TRUE(agg.allocate_pvbns(agg.total_blocks() * 95 / 100, all, stats));
  CpStats f1;
  agg.finish_cp(f1);
  agg.begin_cp();
  // Free every second block of RG1's range only: RG1 AAs become ~50% free
  // while RG0 AAs stay nearly full (well under the 40% threshold).
  for (const Vbn v : all) {
    if (v >= agg.rg_base(1) && (v % 2 == 0)) {
      agg.defer_free_pvbn(v);
    }
  }
  CpStats f2;
  agg.finish_cp(f2);

  agg.raid_group(0).reset_stats();
  agg.raid_group(1).reset_stats();
  agg.begin_cp();
  std::vector<Vbn> out;
  CpStats s3;
  ASSERT_TRUE(agg.allocate_pvbns(20'000, out, s3));
  CpStats f3;
  agg.finish_cp(f3);
  // RG0's in-flight cursor AA may still drain, but fresh checkouts avoid
  // the fragmented group: the healthy group takes the vast majority.
  const std::uint64_t rg0 = agg.raid_group(0).stats().data_blocks_written;
  const std::uint64_t rg1 = agg.raid_group(1).stats().data_blocks_written;
  EXPECT_GT(rg1, 4 * rg0);
  EXPECT_GT(rg1, 15'000u);
}

TEST(Aggregate, ForcedProgressWhenAllGroupsFragmented) {
  AggregateConfig cfg = two_rg_hdd();
  cfg.rg_skip_free_fraction = 0.99;  // everything below threshold
  Aggregate agg(cfg, 1);
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  // Consume a little so no AA is pristine.
  ASSERT_TRUE(agg.allocate_pvbns(100, out, stats));
  CpStats f;
  agg.finish_cp(f);

  agg.begin_cp();
  std::vector<Vbn> out2;
  CpStats s2;
  // All groups under threshold: the allocator must still make progress.
  EXPECT_TRUE(agg.allocate_pvbns(1000, out2, s2));
  EXPECT_EQ(out2.size(), 1000u);
}

TEST(Aggregate, OutOfSpaceReturnsFalse) {
  for (const AaSelectPolicy policy :
       {AaSelectPolicy::kCache, AaSelectPolicy::kRandom}) {
    for (const std::size_t groups : {1u, 2u}) {
      SCOPED_TRACE(std::to_string(groups) + " groups, policy " +
                   std::to_string(static_cast<int>(policy)));
      AggregateConfig cfg;
      RaidGroupConfig rg;
      rg.data_devices = 2;
      rg.parity_devices = 1;
      rg.device_blocks = 128;
      rg.media.type = MediaType::kHdd;
      rg.aa_stripes = 64;
      cfg.raid_groups.assign(groups, rg);
      cfg.policy = policy;
      Aggregate agg(cfg, 1);
      agg.begin_cp();
      CpStats stats;
      std::vector<Vbn> out;
      EXPECT_FALSE(agg.allocate_pvbns(1000, out, stats));
      EXPECT_EQ(out.size(), 256u * groups);  // everything there was
      EXPECT_EQ(std::set<Vbn>(out.begin(), out.end()).size(), out.size());
    }
  }
}

// The plan is exact: the AA the segment cleaner has checked out is not
// counted as capacity, so a group whose only free AA is checked out gets
// no quota and the demand lands, in full, on the other group.
TEST(Aggregate, PlanSkipsCheckedOutAas) {
  ThreadPool two(2);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two}) {
    SCOPED_TRACE(pool == nullptr ? "serial" : "2 workers");
    Aggregate agg(two_rg_hdd(), 1, Runtime{}.with_pool(pool));
    agg.begin_cp();
    CpStats stats;
    std::vector<Vbn> all;
    ASSERT_TRUE(agg.allocate_pvbns(agg.total_blocks(), all, stats));
    agg.finish_cp(stats);

    // Free group 1 entirely and group 0's AA 0 only, then check AA 0 out.
    agg.begin_cp();
    const AaLayout& layout0 = agg.rg_layout(0);
    for (const Vbn v : all) {
      if (v >= agg.rg_base(1) ||
          (v >= layout0.aa_begin(0) && v < layout0.aa_end(0))) {
        agg.defer_free_pvbn(v);
      }
    }
    agg.finish_cp(stats);
    ASSERT_TRUE(agg.checkout_aa(0, 0));

    agg.begin_cp();
    std::vector<Vbn> out;
    ASSERT_TRUE(agg.allocate_pvbns(8000, out, stats));
    ASSERT_EQ(out.size(), 8000u);
    EXPECT_EQ(std::set<Vbn>(out.begin(), out.end()).size(), out.size());
    for (const Vbn v : out) {
      ASSERT_GE(v, agg.rg_base(1));
    }
    agg.checkin_aa(0, 0);
    agg.finish_cp(stats);
  }
}

// Blocks freed behind the allocator's cursor stay unreachable until the
// cursor leaves its AA (the AA is out of the cache meanwhile), so the plan
// does not count them: demanding every free block comes up short by
// exactly those blocks instead of overrunning the group's quota, and the
// next CP, with the AA re-admitted, can allocate them.
TEST(Aggregate, PlanSkipsFreesBehindCursor) {
  for (const AaSelectPolicy policy :
       {AaSelectPolicy::kCache, AaSelectPolicy::kRandom}) {
    SCOPED_TRACE(static_cast<int>(policy));
    AggregateConfig cfg = two_rg_hdd(policy);
    cfg.raid_groups.resize(1);
    Aggregate agg(cfg, 1);
    agg.begin_cp();
    CpStats stats;
    std::vector<Vbn> first;  // leaves the cursor mid-AA
    ASSERT_TRUE(agg.allocate_pvbns(1000, first, stats));
    agg.finish_cp(stats);
    agg.begin_cp();
    for (const Vbn v : first) {
      agg.defer_free_pvbn(v);
    }
    agg.finish_cp(stats);

    agg.begin_cp();
    std::vector<Vbn> out;
    EXPECT_FALSE(agg.allocate_pvbns(agg.free_blocks(), out, stats));
    EXPECT_EQ(out.size(), agg.total_blocks() - first.size());
    agg.finish_cp(stats);

    agg.begin_cp();
    out.clear();
    EXPECT_TRUE(agg.allocate_pvbns(first.size(), out, stats));
    agg.finish_cp(stats);
    EXPECT_EQ(agg.free_blocks(), 0u);
  }
}

TEST(Aggregate, SsdDevicesGetTrimOnFree) {
  AggregateConfig cfg;
  RaidGroupConfig rg;
  rg.data_devices = 2;
  rg.parity_devices = 1;
  rg.device_blocks = 4096;
  rg.media.type = MediaType::kSsd;
  rg.media.ssd.pages_per_erase_block = 64;
  rg.media.ssd_ftl = SsdFtl::kPageMapped;
  rg.aa_stripes = 512;
  cfg.raid_groups = {rg};
  Aggregate agg(cfg, 1);

  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  ASSERT_TRUE(agg.allocate_pvbns(1000, out, stats));
  CpStats f;
  agg.finish_cp(f);

  auto& ssd = dynamic_cast<SsdModel&>(agg.data_device(0, 0));
  const std::uint64_t valid_before = ssd.valid_pages();
  EXPECT_GT(valid_before, 0u);

  agg.begin_cp();
  for (const Vbn v : out) {
    agg.defer_free_pvbn(v);
  }
  CpStats f2;
  agg.finish_cp(f2);
  EXPECT_LT(ssd.valid_pages(), valid_before);
  EXPECT_EQ(ssd.valid_pages(), 0u);
}

TEST(Aggregate, RandomPolicyAllocatesCorrectly) {
  Aggregate agg(two_rg_hdd(AaSelectPolicy::kRandom), 7);
  agg.begin_cp();
  CpStats stats;
  std::vector<Vbn> out;
  ASSERT_TRUE(agg.allocate_pvbns(5000, out, stats));
  std::set<Vbn> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), out.size());
  CpStats f;
  agg.finish_cp(f);
  EXPECT_EQ(agg.free_blocks(), agg.total_blocks() - 5000);
}

TEST(Aggregate, VolumesShareThePhysicalPool) {
  Aggregate agg(two_rg_hdd(), 1);
  FlexVolConfig vcfg;
  vcfg.vvbn_blocks = 8192;
  vcfg.file_blocks = 4096;
  vcfg.aa_blocks = 1024;
  FlexVol& v0 = agg.add_volume(vcfg);
  FlexVol& v1 = agg.add_volume(vcfg);
  EXPECT_EQ(agg.volume_count(), 2u);
  EXPECT_EQ(v0.id(), 0u);
  EXPECT_EQ(v1.id(), 1u);
  EXPECT_NE(&agg.volume(0), &agg.volume(1));
}

TEST(Aggregate, OwnerOfIgnoresFreedBlocks) {
  // One group of 12 288 blocks, so the third CP has to reuse blocks the
  // second one freed.  release_pvbns leaves a freed block's owner entry
  // stale; owner_of must still answer from the activemap bit.
  AggregateConfig cfg = two_rg_hdd();
  cfg.raid_groups.resize(1);
  cfg.raid_groups[0].device_blocks = 4096;
  Aggregate agg(cfg, 7);
  FlexVolConfig vcfg;
  vcfg.vvbn_blocks = 32 * 1024;
  vcfg.file_blocks = 12'000;
  vcfg.aa_blocks = 1024;
  FlexVol& vol = agg.add_volume(vcfg);
  const auto cp = [&](std::uint64_t lo, std::uint64_t hi) {
    std::vector<DirtyBlock> dirty;
    for (std::uint64_t l = lo; l < hi; ++l) dirty.push_back({0, l});
    ConsistencyPoint::run(agg, dirty);
  };
  const auto pvbns_of = [&](std::uint64_t lo, std::uint64_t hi) {
    std::set<Vbn> out;
    for (std::uint64_t l = lo; l < hi; ++l) out.insert(vol.pvbn_of(l));
    return out;
  };

  // A pvbn freed by a CP reads nullopt once the boundary has freed it.
  cp(0, 4000);
  const std::set<Vbn> freed = pvbns_of(0, 4000);
  cp(0, 4000);
  for (const Vbn p : freed) {
    ASSERT_FALSE(agg.activemap().is_allocated(p));
    ASSERT_FALSE(agg.owner_of(p).has_value()) << "pvbn " << p;
  }

  // A reallocated block reports its new owner.
  cp(4000, 12'000);
  std::uint64_t reused = 0;
  for (std::uint64_t l = 4000; l < 12'000; ++l) {
    const Vbn p = vol.pvbn_of(l);
    const auto owner = agg.owner_of(p);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(owner->vol, 0u);
    EXPECT_EQ(owner->vvbn, vol.vvbn_of(l));
    if (freed.contains(p)) ++reused;
  }
  // Only total - 8000 blocks were never written before this CP.
  EXPECT_GE(reused, 8000u - (agg.total_blocks() - 8000u));

  // A freed block later seeded by seed_rg_occupancy belongs to no volume.
  const std::set<Vbn> refreed = pvbns_of(4000, 4200);
  cp(4000, 4200);
  agg.scan_rebuild();  // a remount: seeding needs no AA held open
  Rng rng(3);
  agg.seed_rg_occupancy(0, 1.0, rng);
  for (const Vbn p : refreed) {
    ASSERT_TRUE(agg.activemap().is_allocated(p));
    ASSERT_FALSE(agg.owner_of(p).has_value()) << "pvbn " << p;
  }
}

}  // namespace
}  // namespace wafl
