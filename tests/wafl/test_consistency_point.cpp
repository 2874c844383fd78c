#include "wafl/consistency_point.hpp"

#include "sim/aging.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "util/thread_pool.hpp"

namespace wafl {
namespace {

struct Rig {
  explicit Rig(AaSelectPolicy policy = AaSelectPolicy::kCache,
               MediaType media = MediaType::kHdd)
      : agg(make_config(policy, media), 1) {
    FlexVolConfig vcfg;
    vcfg.vvbn_blocks = 64 * 1024;
    vcfg.file_blocks = 32 * 1024;
    vcfg.aa_blocks = 4096;
    vcfg.policy = policy;
    agg.add_volume(vcfg);
  }

  static AggregateConfig make_config(AaSelectPolicy policy, MediaType media) {
    AggregateConfig cfg;
    RaidGroupConfig rg;
    rg.data_devices = 4;
    rg.parity_devices = 1;
    rg.device_blocks = 32 * 1024;
    rg.media.type = media;
    if (media == MediaType::kSsd) {
      rg.media.ssd.pages_per_erase_block = 1024;
    }
    rg.aa_stripes = 2048;
    cfg.raid_groups = {rg};
    cfg.policy = policy;
    return cfg;
  }

  std::vector<DirtyBlock> range(std::uint64_t lo, std::uint64_t hi) {
    std::vector<DirtyBlock> out;
    for (std::uint64_t l = lo; l < hi; ++l) {
      out.push_back({0, l});
    }
    return out;
  }

  Aggregate agg;
};

TEST(ConsistencyPoint, FirstWriteMapsEveryBlock) {
  Rig rig;
  const auto dirty = rig.range(0, 5000);
  const CpStats stats = ConsistencyPoint::run(rig.agg, dirty);
  EXPECT_EQ(stats.blocks_written, 5000u);
  EXPECT_EQ(stats.blocks_freed, 0u);  // nothing overwritten yet
  FlexVol& vol = rig.agg.volume(0);
  for (std::uint64_t l = 0; l < 5000; ++l) {
    ASSERT_TRUE(vol.is_mapped(l));
    EXPECT_TRUE(vol.activemap().is_allocated(vol.vvbn_of(l)));
    EXPECT_TRUE(rig.agg.activemap().is_allocated(vol.pvbn_of(l)));
  }
  EXPECT_EQ(rig.agg.free_blocks(), rig.agg.total_blocks() - 5000);
  EXPECT_EQ(vol.free_blocks(), 64u * 1024u - 5000u);
}

TEST(ConsistencyPoint, OverwriteFreesExactlyOldBlocks) {
  Rig rig;
  ConsistencyPoint::run(rig.agg, rig.range(0, 5000));
  const std::uint64_t agg_free = rig.agg.free_blocks();
  const std::uint64_t vol_free = rig.agg.volume(0).free_blocks();

  const CpStats stats = ConsistencyPoint::run(rig.agg, rig.range(0, 2000));
  EXPECT_EQ(stats.blocks_written, 2000u);
  EXPECT_EQ(stats.blocks_freed, 2000u);
  // Steady state: allocations balance frees exactly.
  EXPECT_EQ(rig.agg.free_blocks(), agg_free);
  EXPECT_EQ(rig.agg.volume(0).free_blocks(), vol_free);
}

TEST(ConsistencyPoint, StorageAndMetaAccounting) {
  Rig rig;
  const CpStats stats = ConsistencyPoint::run(rig.agg, rig.range(0, 4096));
  EXPECT_GT(stats.storage_time_ns, 0u);
  EXPECT_GT(stats.tetrises, 0u);
  EXPECT_GT(stats.meta_flush_blocks, 0u);
  EXPECT_GE(stats.vol_meta_blocks, 1u);
  EXPECT_GE(stats.agg_meta_blocks, 1u);
  EXPECT_GT(stats.vol_bits_scanned, 0u);
  EXPECT_GT(stats.agg_bits_scanned, 0u);
  EXPECT_EQ(stats.vol_pick_free_frac.count(), stats.hbps_replenishes + 1);
}

TEST(ConsistencyPoint, EmptyCpIsHarmless) {
  Rig rig;
  const CpStats stats = ConsistencyPoint::run(rig.agg, {});
  EXPECT_EQ(stats.blocks_written, 0u);
  EXPECT_EQ(stats.tetrises, 0u);
}

TEST(ConsistencyPoint, ManyCpsMaintainGlobalInvariants) {
  Rig rig;
  ConsistencyPoint::run(rig.agg, rig.range(0, 20'000));
  for (int cp = 0; cp < 20; ++cp) {
    const std::uint64_t lo = static_cast<std::uint64_t>(cp) * 500;
    ConsistencyPoint::run(rig.agg, rig.range(lo, lo + 4000));
    // Volume scoreboard total == volume free count, every CP.
    const FlexVol& vol = rig.agg.volume(0);
    ASSERT_EQ(vol.scoreboard().total_free(), vol.free_blocks());
    ASSERT_TRUE(vol.cache().validate());
    ASSERT_TRUE(rig.agg.rg_cache(0).validate());
  }
  // Live blocks: union of [0,20000) and the overwrite windows — still
  // exactly the mapped count.
  const FlexVol& vol = rig.agg.volume(0);
  std::uint64_t mapped = 0;
  for (std::uint64_t l = 0; l < vol.file_blocks(); ++l) {
    if (vol.is_mapped(l)) ++mapped;
  }
  EXPECT_EQ(rig.agg.total_blocks() - rig.agg.free_blocks(), mapped);
  EXPECT_EQ(vol.config().vvbn_blocks - vol.free_blocks(), mapped);
}

TEST(ConsistencyPoint, VvbnAndPvbnMappingsStayInSync) {
  Rig rig;
  ConsistencyPoint::run(rig.agg, rig.range(0, 8000));
  ConsistencyPoint::run(rig.agg, rig.range(1000, 3000));
  const FlexVol& vol = rig.agg.volume(0);
  // Every mapped logical block has a live vvbn AND a live pvbn; distinct
  // logical blocks never share either.
  std::set<Vbn> vvbns, pvbns;
  for (std::uint64_t l = 0; l < 8000; ++l) {
    ASSERT_TRUE(vol.is_mapped(l));
    EXPECT_TRUE(vvbns.insert(vol.vvbn_of(l)).second);
    EXPECT_TRUE(pvbns.insert(vol.pvbn_of(l)).second);
  }
}

TEST(ConsistencyPoint, SsdWriteAmpEmergesUnderChurn) {
  Rig rig(AaSelectPolicy::kCache, MediaType::kSsd);
  // Fill most of the volume, then churn overwrites.
  ConsistencyPoint::run(rig.agg, rig.range(0, 30'000));
  rig.agg.reset_wear_windows();
  for (int cp = 0; cp < 30; ++cp) {
    const std::uint64_t lo = static_cast<std::uint64_t>(cp * 997) % 25'000;
    ConsistencyPoint::run(rig.agg, rig.range(lo, lo + 3000));
  }
  // Churn on a mostly-full SSD aggregate must show some relocation.
  EXPECT_GE(rig.agg.mean_write_amplification(), 1.0);
}

TEST(ConsistencyPoint, CacheGuidedAllocationBeatsRandomOnAgedVolume) {
  // §4.1.2 end-to-end: on an aged, fragmented volume the HBPS-guided
  // allocator checks out emptier AAs than random selection (the paper's
  // 78% vs 61% free), and therefore does less free-block search work per
  // allocated block (fewer bitmap bits examined).
  auto make = [](AaSelectPolicy policy) {
    AggregateConfig cfg;
    RaidGroupConfig rg;
    rg.data_devices = 4;
    rg.parity_devices = 1;
    rg.device_blocks = 128 * 1024;
    rg.media.type = MediaType::kHdd;
    rg.aa_stripes = 4096;
    cfg.raid_groups = {rg};
    cfg.policy = policy;
    auto agg = std::make_unique<Aggregate>(cfg, 1);
    FlexVolConfig vcfg;
    vcfg.vvbn_blocks = 12ull * kFlatAaBlocks;
    vcfg.file_blocks = 300'000;
    vcfg.aa_blocks = kFlatAaBlocks;
    vcfg.policy = policy;
    agg->add_volume(vcfg);
    return agg;
  };
  auto cache_agg = make(AaSelectPolicy::kCache);
  auto random_agg = make(AaSelectPolicy::kRandom);

  // Age both identically: fill 70%, then one pass of skewed overwrites.
  AgingConfig aging;
  aging.fill_fraction = 0.7;
  aging.overwrite_passes = 1.0;
  aging.zipf_theta = 0.9;
  aging.cp_blocks = 32'768;
  age_filesystem(*cache_agg, std::array{VolumeId{0}}, aging);
  age_filesystem(*random_agg, std::array{VolumeId{0}}, aging);

  // Steady-state overwrite CPs.
  Rng rng(77);
  RandomOverwriteWorkload wl({0}, 210'000, 1, 0.9);
  CpStats cache_stats, random_stats;
  for (int cp = 0; cp < 8; ++cp) {
    std::vector<DirtyBlock> batch;
    std::set<std::uint64_t> dedup;
    while (batch.size() < 16'384) {
      const DirtyBlock db = wl.next_write(rng);
      if (dedup.insert(db.logical).second) batch.push_back(db);
    }
    cache_stats.merge(ConsistencyPoint::run(*cache_agg, batch));
    random_stats.merge(ConsistencyPoint::run(*random_agg, batch));
  }

  // Chosen-AA quality: cache picks clearly emptier AAs.
  EXPECT_GT(cache_stats.vol_pick_free_frac.mean(),
            random_stats.vol_pick_free_frac.mean());
  // Search cost: fewer bits examined per allocated block.
  const double cache_bits = static_cast<double>(cache_stats.vol_bits_scanned);
  const double random_bits =
      static_cast<double>(random_stats.vol_bits_scanned);
  EXPECT_LT(cache_bits, random_bits);
}

// --- Volume grouping at freeze ----------------------------------------------

struct GroupingCase {
  const char* name;
  std::size_t volume_count;
  std::vector<VolumeId> vols;  // volumes the dirty blocks are drawn from
  std::size_t blocks;
  bool in_volume_order = false;  // submitted volume by volume
};

TEST(ConsistencyPoint, GroupByVolumeMatchesStableSort) {
  const auto by_vol = [](const DirtyBlock& a, const DirtyBlock& b) {
    return a.vol < b.vol;
  };
  const std::vector<GroupingCase> cases = {
      {"empty", 3, {0, 1, 2}, 0},
      {"single volume", 1, {0}, 5000},
      {"8 interleaved volumes", 8, {0, 1, 2, 3, 4, 5, 6, 7}, 20000},
      // Sparse ids: volumes 0, 2-4, 6-8 and 10 get no dirty blocks.
      {"sparse ids", 12, {1, 5, 9, 11}, 7000},
      {"volume runs in order", 6, {0, 2, 3, 5}, 6000, true},
  };
  for (const GroupingCase& c : cases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      Rng rng(seed);
      std::vector<DirtyBlock> dirty;
      for (std::size_t i = 0; i < c.blocks; ++i) {
        // Logical numbers repeat across volumes and are unsorted, so
        // any reordering within a volume shows.
        dirty.push_back({c.vols[rng.below(c.vols.size())], rng.below(1000)});
      }
      if (c.in_volume_order) {
        std::stable_sort(dirty.begin(), dirty.end(), by_vol);
      }
      std::vector<DirtyBlock> expect = dirty;
      std::stable_sort(expect.begin(), expect.end(), by_vol);
      std::vector<DirtyBlock> got = dirty;
      ConsistencyPoint::group_by_volume(got, c.volume_count);
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].vol, expect[i].vol) << "index " << i;
        ASSERT_EQ(got[i].logical, expect[i].logical) << "index " << i;
      }
    }
  }
}

// --- CP output pin ------------------------------------------------------------

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const RunningStat& s) {
    add(s.count());
    add(s.mean());
    add(s.min());
    add(s.max());
    add(s.variance());
  }
  void add(const std::vector<std::uint64_t>& words) {
    add(static_cast<std::uint64_t>(words.size()));
    for (const std::uint64_t w : words) add(w);
  }
  void add(const AaScoreBoard& board) {
    for (AaId aa = 0; aa < board.aa_count(); ++aa) {
      add(std::uint64_t{board.score(aa)});
    }
  }
};

/// Everything a CP writes into in-memory state: every volume's block map,
/// container map, activemap words and scoreboard; the aggregate's owner
/// table, activemap words and per-group scoreboards; and the summed
/// CpStats.
std::uint64_t cp_output_digest(const Aggregate& agg, const CpStats& sum) {
  Digest d;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const FlexVol& vol = agg.volume(v);
    for (std::uint64_t l = 0; l < vol.file_blocks(); ++l) {
      d.add(vol.vvbn_of(l));
    }
    for (Vbn vv = 0; vv < vol.config().vvbn_blocks; ++vv) {
      d.add(vol.pvbn_of_vvbn(vv));
    }
    d.add(vol.activemap().metafile().bits().words());
    d.add(vol.scoreboard());
    d.add(vol.pending_delayed_frees());
  }
  for (Vbn p = 0; p < agg.total_blocks(); ++p) {
    const auto owner = agg.owner_of(p);
    d.add(owner ? (std::uint64_t{owner->vol} << 48) | owner->vvbn
                : ~std::uint64_t{0});
  }
  d.add(agg.activemap().metafile().bits().words());
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    d.add(agg.rg_scoreboard(rg));
  }
  for (const std::uint64_t v :
       {sum.ops, sum.blocks_written, sum.blocks_freed, sum.vol_meta_blocks,
        sum.agg_meta_blocks, sum.meta_flush_blocks, sum.tetrises,
        sum.full_stripes, sum.partial_stripes, sum.parity_read_blocks,
        sum.write_chains, std::uint64_t{sum.storage_time_ns},
        sum.hbps_replenishes, sum.vol_bits_scanned, sum.agg_bits_scanned}) {
    d.add(v);
  }
  d.add(sum.vol_pick_free_frac);
  d.add(sum.agg_pick_free_frac);
  return d.h;
}

/// A seeded run of 16 CPs over 3 volumes on an HDD and an SSD RAID group:
/// overwrites in volume-interleaved order, snapshot creates and deletes,
/// and the delayed-free reclaim those deletes feed.
std::uint64_t pinned_cp_run(ThreadPool* pool) {
  AggregateConfig cfg;
  RaidGroupConfig hdd;
  hdd.data_devices = 4;
  hdd.parity_devices = 1;
  hdd.device_blocks = 16 * 1024;
  hdd.media.type = MediaType::kHdd;
  hdd.aa_stripes = 1024;
  RaidGroupConfig ssd = hdd;
  ssd.media.type = MediaType::kSsd;
  ssd.media.ssd.pages_per_erase_block = 1024;
  cfg.raid_groups = {hdd, ssd};
  Aggregate agg(cfg, 2018, Runtime{}.with_pool(pool));
  for (int v = 0; v < 3; ++v) {
    FlexVolConfig vcfg;
    vcfg.vvbn_blocks = 8 * 4096;
    vcfg.file_blocks = 12'000;
    vcfg.aa_blocks = 4096;
    agg.add_volume(vcfg);
  }

  // Snapshot churn between CPs; the deletes leave delayed frees that the
  // following CPs reclaim a few regions at a time.
  struct SnapOp {
    int before_cp;
    VolumeId vol;
    bool create;
  };
  constexpr SnapOp kSnapOps[] = {
      {2, 0, true},   {2, 1, true},  {5, 2, true},  {5, 0, false},
      {8, 1, false},  {8, 0, true},  {11, 2, false}, {11, 0, false},
  };
  std::vector<SnapId> snaps(3, 0);
  std::uint64_t max_pending = 0;

  Rng rng(0xC0FFEE);
  CpStats sum;
  for (int cp = 0; cp < 16; ++cp) {
    for (const SnapOp& op : kSnapOps) {
      if (op.before_cp != cp) continue;
      FlexVol& vol = agg.volume(op.vol);
      if (op.create) {
        snaps[op.vol] = vol.create_snapshot();
      } else {
        vol.delete_snapshot(snaps[op.vol]);
        max_pending = std::max(max_pending, vol.pending_delayed_frees());
      }
    }
    // The first CP fills every volume; later ones overwrite at random.
    // Volumes interleave, so the freeze's grouping reorders the list.
    std::vector<DirtyBlock> dirty;
    std::set<std::pair<VolumeId, std::uint64_t>> seen;
    const std::size_t want = cp == 0 ? 36'000 : 6'000;
    while (dirty.size() < want) {
      const DirtyBlock b{static_cast<VolumeId>(rng.below(3)),
                         cp == 0 ? dirty.size() / 3 : rng.below(12'000)};
      if (seen.insert({b.vol, b.logical}).second) dirty.push_back(b);
    }
    sum.merge(ConsistencyPoint::run(agg, dirty));
  }
  EXPECT_GT(max_pending, 0u);
  for (VolumeId v = 0; v < 3; ++v) {
    EXPECT_EQ(agg.volume(v).pending_delayed_frees(), 0u);
  }
  EXPECT_GT(sum.blocks_freed, 0u);
  return cp_output_digest(agg, sum);
}

TEST(ConsistencyPoint, OutputDigestPinned) {
  // Recorded with plain per-block remap and release loops (no
  // prefetching, a stable sort at freeze), so it pins allocation order
  // and every CP output to theirs, with and without a pool.
  constexpr std::uint64_t kPinned = 13723117295971938030ULL;
  EXPECT_EQ(pinned_cp_run(nullptr), kPinned);
  ThreadPool pool(3);
  EXPECT_EQ(pinned_cp_run(&pool), kPinned);
}

}  // namespace
}  // namespace wafl
