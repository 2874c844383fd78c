#include "wafl/mount.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/max_heap_cache.hpp"
#include "core/topaa.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"
#include "wafl/consistency_point.hpp"
#include "wafl/iron.hpp"

namespace wafl {
namespace {

struct Rig {
  explicit Rig(ThreadPool* pool = nullptr)
      : agg(make_config(), 3, Runtime{}.with_pool(pool)) {
    FlexVolConfig vcfg;
    vcfg.vvbn_blocks = 64 * 1024;
    vcfg.file_blocks = 32 * 1024;
    vcfg.aa_blocks = 4096;
    agg.add_volume(vcfg);
    agg.add_volume(vcfg);
    // Write through a few CPs so there is real state on "media".
    std::vector<DirtyBlock> dirty;
    for (VolumeId v = 0; v < 2; ++v) {
      dirty.clear();
      for (std::uint64_t l = 0; l < 10'000; ++l) {
        dirty.push_back({v, l});
      }
      ConsistencyPoint::run(agg, dirty);
      dirty.clear();
      for (std::uint64_t l = 2'000; l < 6'000; ++l) {
        dirty.push_back({v, l});
      }
      ConsistencyPoint::run(agg, dirty);
    }
  }

  static AggregateConfig make_config() {
    AggregateConfig cfg;
    RaidGroupConfig rg;
    rg.data_devices = 4;
    rg.parity_devices = 1;
    rg.device_blocks = 32 * 1024;
    rg.media.type = MediaType::kHdd;
    rg.aa_stripes = 2048;
    cfg.raid_groups = {rg, rg};
    return cfg;
  }

  Aggregate agg;
};

TEST(Mount, TopAaGateIsConstantSized) {
  Rig rig;
  const MountReport r = mount_all(rig.agg, /*use_topaa=*/true);
  EXPECT_TRUE(r.used_topaa);
  EXPECT_EQ(r.rgs_seeded, 2u);
  EXPECT_EQ(r.vols_seeded, 2u);
  // 1 block per RAID group + 2 per volume — independent of capacity
  // (§3.4 / Figure 10's flat line).
  EXPECT_EQ(r.gate_block_reads,
            2 * TopAaFile::kRaidAwareBlocks +
                2 * TopAaFile::kRaidAgnosticBlocks);
}

TEST(Mount, ScanGateReadsEveryBitmapBlock) {
  Rig rig;
  const MountReport r = mount_all(rig.agg, /*use_topaa=*/false);
  EXPECT_FALSE(r.used_topaa);
  const std::uint64_t agg_bitmap_blocks =
      rig.agg.activemap().metafile().metafile_blocks();
  const std::uint64_t vol_bitmap_blocks =
      rig.agg.volume(0).activemap().metafile().metafile_blocks();
  EXPECT_EQ(r.gate_block_reads, agg_bitmap_blocks + 2 * vol_bitmap_blocks);
  EXPECT_GT(r.gate_block_reads,
            2 * TopAaFile::kRaidAwareBlocks +
                2 * TopAaFile::kRaidAgnosticBlocks);
}

TEST(Mount, SeededCachesSustainAllocation) {
  Rig rig;
  mount_all(rig.agg, /*use_topaa=*/true);
  // The first CP must proceed correctly from the seeded caches alone.
  std::vector<DirtyBlock> dirty;
  for (std::uint64_t l = 0; l < 3000; ++l) {
    dirty.push_back({0, l});
  }
  const CpStats stats = ConsistencyPoint::run(rig.agg, dirty);
  EXPECT_EQ(stats.blocks_written, 3000u);
  const FlexVol& vol = rig.agg.volume(0);
  EXPECT_EQ(vol.scoreboard().total_free(), vol.free_blocks());
}

TEST(Mount, BackgroundCompletionRestoresFullCaches) {
  Rig rig;
  mount_all(rig.agg, /*use_topaa=*/true);
  // Seeded heap holds at most kTopAaRaidAwareEntries per group.
  EXPECT_LE(rig.agg.rg_cache(0).size(),
            static_cast<std::size_t>(kTopAaRaidAwareEntries));
  complete_background(rig.agg);
  // Full heap again: every AA of the group.
  EXPECT_EQ(rig.agg.rg_cache(0).size(), rig.agg.rg_layout(0).aa_count());
  EXPECT_TRUE(rig.agg.rg_cache(0).validate());
}

TEST(Mount, ScanAndTopAaAgreeOnBestAa) {
  Rig rig;
  mount_all(rig.agg, /*use_topaa=*/true);
  const auto seeded_best = rig.agg.rg_cache(0).peek_best_score();
  complete_background(rig.agg);
  const auto full_best = rig.agg.rg_cache(0).peek_best_score();
  ASSERT_TRUE(seeded_best.has_value());
  ASSERT_TRUE(full_best.has_value());
  // The TopAA file holds the best AAs, so the seeded best equals the
  // rebuilt best.
  EXPECT_EQ(*seeded_best, *full_best);
}

TEST(Mount, CorruptRgTopAaFallsBackPerGroup) {
  Rig rig;
  // Damage RG1's TopAA block (each group owns a two-block slot in the
  // TopAA store).
  rig.agg.topaa_store().corrupt(rig.agg.rg_topaa_block(1), 3);
  const MountReport r = mount_all(rig.agg, /*use_topaa=*/true);
  EXPECT_EQ(r.rgs_seeded, 1u);  // RG0 fine, RG1 fell back
  // Both groups still operational.
  EXPECT_GT(rig.agg.rg_cache(0).size(), 0u);
  EXPECT_GT(rig.agg.rg_cache(1).size(), 0u);
}

TEST(Mount, TornTopAaCommitFallsBackPerGroup) {
  Rig rig;
  // A realistically torn commit (not a synthetic bit flip): RG1's TopAA
  // write during the next CP persists only its first 16 bytes — the new
  // header and CRC over the OLD surviving entries — so the checksum
  // cannot verify.  (The tear must land inside the ~200-byte payload;
  // a larger prefix would persist the whole logical image.)
  fault::FaultPlan plan;
  plan.seed = 31;
  plan.torn_write_prob = 1.0;
  plan.torn_bytes = 16;
  plan.only_block = rig.agg.rg_topaa_block(1);
  fault::FaultEngine engine(plan);
  rig.agg.topaa_store().set_fault_injector(&engine);
  std::vector<DirtyBlock> dirty;
  for (std::uint64_t l = 6'000; l < 10'000; ++l) dirty.push_back({0, l});
  ConsistencyPoint::run(rig.agg, dirty);
  rig.agg.topaa_store().set_fault_injector(nullptr);
  ASSERT_FALSE(engine.journal().empty()) << "tear never triggered";

  const MountReport r = mount_all(rig.agg, /*use_topaa=*/true);
  EXPECT_TRUE(r.used_topaa);
  EXPECT_EQ(r.rgs_seeded, 1u);  // RG0 from TopAA, RG1 fell back to scan
  EXPECT_EQ(r.vols_seeded, 2u);
  EXPECT_GT(rig.agg.rg_cache(0).size(), 0u);
  EXPECT_GT(rig.agg.rg_cache(1).size(), 0u);
  // Iron restores the fast path for the next mount (run it before any
  // further CP — a CP's own TopAA commit would also repair the block)...
  EXPECT_GE(iron_check_topaa(rig.agg).rg_rewritten, 1u);
  EXPECT_EQ(mount_all(rig.agg, /*use_topaa=*/true).rgs_seeded, 2u);
  // ...and the system is fully operational afterwards.
  dirty.clear();
  for (std::uint64_t l = 0; l < 2'000; ++l) dirty.push_back({1, l});
  EXPECT_EQ(ConsistencyPoint::run(rig.agg, dirty).blocks_written, 2000u);
}

TEST(Mount, ScanPathParallelMatchesSerial) {
  ThreadPool pool(3);
  Rig serial_rig, parallel_rig(&pool);
  mount_all(serial_rig.agg, false);
  mount_all(parallel_rig.agg, false);
  for (RaidGroupId rg = 0; rg < 2; ++rg) {
    EXPECT_EQ(serial_rig.agg.rg_cache(rg).peek_best_score(),
              parallel_rig.agg.rg_cache(rg).peek_best_score());
    EXPECT_EQ(serial_rig.agg.rg_scoreboard(rg).total_free(),
              parallel_rig.agg.rg_scoreboard(rg).total_free());
  }
}

// Every rebuild of an object-store pool's HBPS must track every AA again,
// including the one the allocator held open when the rebuild began.  An
// AA the HBPS still believes checked out stays out of the histogram and
// every TopAA image while the plan counts its free blocks, so filling the
// pool would abort with blocks free.
TEST(Mount, RebuildRetracksObjectStoreCursorAa) {
  enum class Entry { kScanMount, kDamagedTopAaMount, kBackgroundCompletion };
  for (const Entry entry : {Entry::kScanMount, Entry::kDamagedTopAaMount,
                            Entry::kBackgroundCompletion}) {
    SCOPED_TRACE(static_cast<int>(entry));
    AggregateConfig cfg;
    RaidGroupConfig pool;
    pool.data_devices = 1;
    pool.parity_devices = 0;
    pool.device_blocks = 4 * kFlatAaBlocks;
    pool.media.type = MediaType::kObjectStore;
    cfg.raid_groups = {pool};
    Aggregate agg(cfg, 1);
    FlexVolConfig vcfg;
    vcfg.vvbn_blocks = 5 * kFlatAaBlocks;
    vcfg.file_blocks = 4 * kFlatAaBlocks;
    agg.add_volume(vcfg);
    ASSERT_EQ(agg.rg_layout(0).aa_count(), 4u);

    std::uint64_t next = 0;
    auto write = [&](std::uint64_t n) {
      std::vector<DirtyBlock> dirty;
      for (std::uint64_t l = next; l < next + n; ++l) dirty.push_back({0, l});
      next += n;
      EXPECT_EQ(ConsistencyPoint::run(agg, dirty).blocks_written, n);
    };
    write(5000);
    EXPECT_EQ(agg.rg_hbps(0).size(), 3u);  // one AA is open

    switch (entry) {
      case Entry::kScanMount:
        mount_all(agg, /*use_topaa=*/false);
        break;
      case Entry::kDamagedTopAaMount:
        agg.topaa_store().corrupt(agg.rg_topaa_block(0), 3);
        EXPECT_EQ(mount_all(agg, /*use_topaa=*/true).rgs_seeded, 0u);
        break;
      case Entry::kBackgroundCompletion:
        EXPECT_EQ(mount_all(agg, /*use_topaa=*/true).rgs_seeded, 1u);
        write(5000);
        complete_background(agg);
        break;
    }
    ASSERT_EQ(agg.rg_hbps(0).size(), 4u);
    EXPECT_TRUE(agg.rg_hbps(0).validate());

    // Write the pool to within 1000 blocks of full.
    while (agg.free_blocks() > 1000) {
      write(std::min<std::uint64_t>(30'000, agg.free_blocks() - 1000));
    }
    EXPECT_EQ(agg.free_blocks(), 1000u);
  }
}


// --- Parallel scan determinism oracle (PR 9) -------------------------------
//
// The scan mount fans out one level at a time — the aggregate metafile's
// block walk, then its RAID groups, then the volumes — and claims
// byte-identical results at any worker count.  These tests prove it over
// full cache digests — every scoreboard score, every heap entry, every
// HBPS encoding — not just best-AA spot checks, for every mount path that
// reaches the scan, on rigs whose volumes span 5 bitmap-metafile blocks.

std::vector<std::byte> image_bytes(const TopAaImage& img) {
  std::vector<std::byte> out;
  for (std::uint64_t b = 0; b < img.nblocks; ++b) {
    out.insert(out.end(), img.blocks[b].begin(), img.blocks[b].end());
  }
  return out;
}

struct CacheDigest {
  std::vector<std::vector<AaPick>> heap_tops;
  std::vector<std::vector<std::byte>> rg_hbps;
  std::vector<std::vector<AaScore>> rg_scores;
  std::vector<std::vector<std::byte>> vol_hbps;
  std::vector<std::vector<AaScore>> vol_scores;

  bool operator==(const CacheDigest&) const = default;
};

CacheDigest digest_of(Aggregate& agg) {
  CacheDigest d;
  for (RaidGroupId rg = 0; rg < agg.raid_group_count(); ++rg) {
    const AaScoreBoard& board = agg.rg_scoreboard(rg);
    std::vector<AaScore> scores;
    for (AaId aa = 0; aa < board.aa_count(); ++aa) {
      scores.push_back(board.score(aa));
    }
    d.rg_scores.push_back(std::move(scores));
    if (agg.rg_is_raid_agnostic(rg)) {
      d.rg_hbps.push_back(
          image_bytes(TopAaFile::encode_raid_agnostic(agg.rg_hbps(rg))));
    } else {
      const MaxHeapAaCache& heap = agg.rg_heap(rg);
      d.heap_tops.push_back(heap.top(heap.size()));
    }
  }
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    const FlexVol& vol = agg.volume(v);
    std::vector<AaScore> scores;
    for (AaId aa = 0; aa < vol.scoreboard().aa_count(); ++aa) {
      scores.push_back(vol.scoreboard().score(aa));
    }
    d.vol_scores.push_back(std::move(scores));
    d.vol_hbps.push_back(
        image_bytes(TopAaFile::encode_raid_agnostic(vol.cache())));
  }
  return d;
}

/// Seeded aggregate whose volume bitmaps span 5 metafile blocks each;
/// optionally adds a RAID-agnostic object-store pool as a third group.
std::unique_ptr<Aggregate> make_big(bool object_store_pool,
                                    ThreadPool* pool = nullptr) {
  AggregateConfig cfg;
  RaidGroupConfig rg;
  rg.data_devices = 4;
  rg.parity_devices = 1;
  rg.device_blocks = 32 * 1024;
  rg.media.type = MediaType::kHdd;
  rg.aa_stripes = 2048;
  cfg.raid_groups = {rg, rg};
  if (object_store_pool) {
    RaidGroupConfig os;
    os.data_devices = 1;
    os.parity_devices = 0;
    os.device_blocks = 4 * kFlatAaBlocks;
    os.media.type = MediaType::kObjectStore;
    cfg.raid_groups.push_back(os);
  }
  auto agg =
      std::make_unique<Aggregate>(cfg, 7, Runtime{}.with_pool(pool));
  FlexVolConfig vcfg;
  vcfg.vvbn_blocks = 160 * 1024;  // 5 bitmap-metafile blocks
  vcfg.file_blocks = 64 * 1024;
  vcfg.aa_blocks = 4096;
  agg->add_volume(vcfg);
  agg->add_volume(vcfg);
  std::vector<DirtyBlock> dirty;
  for (VolumeId v = 0; v < 2; ++v) {
    dirty.clear();
    for (std::uint64_t l = 0; l < 20'000; ++l) dirty.push_back({v, l});
    ConsistencyPoint::run(*agg, dirty);
    dirty.clear();
    for (std::uint64_t l = 4'000; l < 11'000; ++l) dirty.push_back({v, l});
    ConsistencyPoint::run(*agg, dirty);
  }
  return agg;
}

std::uint64_t total_block_writes(Aggregate& agg) {
  std::uint64_t n = agg.meta_store().stats().block_writes +
                    agg.topaa_store().stats().block_writes;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    n += agg.volume(v).store().stats().block_writes;
  }
  return n;
}

std::uint64_t total_block_reads(Aggregate& agg) {
  std::uint64_t n = agg.meta_store().stats().block_reads +
                    agg.topaa_store().stats().block_reads;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    n += agg.volume(v).store().stats().block_reads;
  }
  return n;
}

TEST(Mount, RecoverScanReadsEachBitmapBlockOnce) {
  // The scan path loads every bitmap itself, so recover_mount(false) must
  // not load them beforehand too: all it reads is its gate, the same
  // blocks mount_all(false) reads.
  auto recovered = make_big(false);
  auto mounted = make_big(false);
  const std::uint64_t r0 = total_block_reads(*recovered);
  const MountReport r = recover_mount(*recovered, /*use_topaa=*/false);
  const std::uint64_t recover_reads = total_block_reads(*recovered) - r0;
  const std::uint64_t m0 = total_block_reads(*mounted);
  mount_all(*mounted, /*use_topaa=*/false);
  const std::uint64_t mount_reads = total_block_reads(*mounted) - m0;
  EXPECT_EQ(recover_reads, r.gate_block_reads);
  EXPECT_EQ(recover_reads, mount_reads);
}

/// The mount paths that reach the scan.
enum class ScanPath {
  kScanMount,      // mount_all(use_topaa=false)
  kRecoverMount,   // recover_mount(use_topaa=false): reload, then scan
  kTopAaFallback,  // TopAA mount; one volume's slot is damaged
};

void mount_via(Aggregate& agg, ScanPath path) {
  switch (path) {
    case ScanPath::kScanMount:
      mount_all(agg, /*use_topaa=*/false);
      break;
    case ScanPath::kRecoverMount:
      recover_mount(agg, /*use_topaa=*/false);
      break;
    case ScanPath::kTopAaFallback: {
      // Volume 1's TopAA slot fails its checksum, so its
      // mount_from_topaa falls back to scan_rebuild.
      BlockStore& store = agg.volume(1).store();
      store.corrupt(store.capacity_blocks() - TopAaFile::kRaidAgnosticBlocks,
                    5);
      EXPECT_EQ(mount_all(agg, /*use_topaa=*/true).vols_seeded, 1u);
      break;
    }
  }
}

void check_scan_determinism(bool object_store_pool) {
  for (const ScanPath path : {ScanPath::kScanMount, ScanPath::kRecoverMount,
                              ScanPath::kTopAaFallback}) {
    SCOPED_TRACE("path=" + std::to_string(static_cast<int>(path)));
    auto ref = make_big(object_store_pool);
    const std::uint64_t writes0 = total_block_writes(*ref);
    mount_via(*ref, path);
    // The scan is read-only: recomputation never touches media.
    EXPECT_EQ(total_block_writes(*ref), writes0);
    const CacheDigest want = digest_of(*ref);

    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ThreadPool pool(workers);
      auto agg = make_big(object_store_pool, &pool);
      mount_via(*agg, path);
      EXPECT_TRUE(digest_of(*agg) == want)
          << "parallel scan diverged from serial";
    }
  }
}

TEST(MountParallel, ScanDeterministicAcrossWorkerCounts) {
  check_scan_determinism(/*object_store_pool=*/false);
}

TEST(MountParallel, ScanDeterministicWithObjectStorePool) {
  check_scan_determinism(/*object_store_pool=*/true);
}

TEST(MountParallel, RecoverMountSerialAndOneWorkerAgree) {
  // recover_mount's for_each_volume serial-fallback branch: pool == nullptr
  // and a 1-thread pool must walk the same path to the same caches.
  ThreadPool one(1);
  auto a = make_big(false);
  auto b = make_big(false, &one);
  const MountReport ra = recover_mount(*a, /*use_topaa=*/false);
  const MountReport rb = recover_mount(*b, /*use_topaa=*/false);
  EXPECT_EQ(ra.gate_block_reads, rb.gate_block_reads);
  EXPECT_FALSE(ra.used_topaa);
  EXPECT_TRUE(digest_of(*a) == digest_of(*b));
}

TEST(MountParallel, CompleteBackgroundSerialAndOneWorkerAgree) {
  ThreadPool one(1);
  auto a = make_big(false);
  auto b = make_big(false, &one);
  mount_all(*a, /*use_topaa=*/true);
  mount_all(*b, /*use_topaa=*/true);
  const std::uint64_t reads_a = complete_background(*a);
  const std::uint64_t reads_b = complete_background(*b);
  EXPECT_EQ(reads_a, reads_b);
  EXPECT_TRUE(digest_of(*a) == digest_of(*b));
}

TEST(MountParallel, EmitWhileScanStress) {
  // TSAN target (tools/check.sh --tsan): a 4-worker scan mount emits
  // spans from pool workers while a reader thread concurrently snapshots
  // the collector.  Proves the scan's block-load, per-group and
  // per-volume fan-outs and the obs layer race-free under load.
  obs::spans().clear();
  obs::set_span_capture(true);
  ThreadPool pool(4);
  auto agg = make_big(false, &pool);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::spans().snapshot();
    }
  });
  mount_all(*agg, /*use_topaa=*/false);
  complete_background(*agg);
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  obs::set_span_capture(false);
  obs::spans().clear();
  // The scan still produced the right answer under observation.
  const FlexVol& vol = agg->volume(0);
  EXPECT_EQ(vol.scoreboard().total_free(), vol.free_blocks());
}

}  // namespace
}  // namespace wafl
