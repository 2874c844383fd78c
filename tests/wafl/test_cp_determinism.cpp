// CP determinism contract: both halves of the parallel CP — the
// plan/execute physical allocation (WriteAllocator::allocate) and the CP
// boundary (WriteAllocator::finish_cp) — must be bit-identical at every
// worker count.  Demand is partitioned serially (allocation plan; per-group
// frees in deferral order), the fanned-out work touches only group-disjoint
// state, and everything shared (staged allocation deltas, bitmap-metafile
// accounting and flush, TopAA commits, CpStats folds) is serialized in
// fixed group order — so a serial run, a 1-worker pool, and an 8-worker
// pool must produce the same stats, the same media bytes, the same
// scoreboards, and the same persisted TopAA bytes, across heap-managed
// RAID groups and HBPS-managed object-store pools in multiple geometries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wafl/consistency_point.hpp"
#include "wafl/overlapped_cp.hpp"

namespace wafl {
namespace {

constexpr std::size_t kVols = 4;
constexpr int kGeometries = 2;

// Geometry 0: symmetric heap-managed HDD groups plus an HBPS-managed
// object-store pool, with the §3.3.1 skip bias enabled so the rotation
// takes the biased path too.  Geometry 1: asymmetric widths and media — a
// narrow SSD group, a wide HDD group and a smaller pool — so the plan's
// per-group capacities, tetris widths and device timings all differ.
std::unique_ptr<Aggregate> make_agg(
    int geometry, ThreadPool* pool = nullptr,
    AaSelectPolicy policy = AaSelectPolicy::kCache) {
  AggregateConfig cfg;
  cfg.policy = policy;
  if (geometry == 0) {
    RaidGroupConfig hdd;
    hdd.data_devices = 4;
    hdd.parity_devices = 1;
    hdd.device_blocks = 64 * 1024;
    hdd.media.type = MediaType::kHdd;
    hdd.aa_stripes = 2048;

    RaidGroupConfig os;
    os.data_devices = 1;
    os.parity_devices = 0;
    os.device_blocks = 8 * kFlatAaBlocks;
    os.media.type = MediaType::kObjectStore;

    cfg.raid_groups = {hdd, hdd, os};
  } else {
    RaidGroupConfig ssd;
    ssd.data_devices = 3;
    ssd.parity_devices = 1;
    ssd.device_blocks = 32 * 1024;
    ssd.media.type = MediaType::kSsd;
    ssd.media.ssd.pages_per_erase_block = 1024;
    ssd.aa_stripes = 1024;

    RaidGroupConfig hdd;
    hdd.data_devices = 8;
    hdd.parity_devices = 1;
    hdd.device_blocks = 64 * 1024;
    hdd.media.type = MediaType::kHdd;
    hdd.aa_stripes = 2048;

    RaidGroupConfig os;
    os.data_devices = 1;
    os.parity_devices = 0;
    os.device_blocks = 4 * kFlatAaBlocks;
    os.media.type = MediaType::kObjectStore;

    cfg.raid_groups = {ssd, hdd, os};
  }
  cfg.rg_skip_free_fraction = 0.02;
  auto agg = std::make_unique<Aggregate>(cfg, 20180813,
                                         Runtime{}.with_pool(pool));
  for (std::size_t v = 0; v < kVols; ++v) {
    FlexVolConfig vol;
    vol.file_blocks = 30'000;
    vol.vvbn_blocks = 3ull * kFlatAaBlocks;
    vol.aa_blocks = 8192;
    agg->add_volume(vol);
  }
  return agg;
}

std::vector<DirtyBlock> mixed_batch(Rng& rng, std::uint64_t per_vol) {
  std::vector<DirtyBlock> out;
  for (VolumeId v = 0; v < kVols; ++v) {
    for (std::uint64_t i = 0; i < per_vol; ++i) {
      out.push_back({v, rng.below(25'000)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DirtyBlock& a, const DirtyBlock& b) {
              return a.vol != b.vol ? a.vol < b.vol : a.logical < b.logical;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const DirtyBlock& a, const DirtyBlock& b) {
                          return a.vol == b.vol && a.logical == b.logical;
                        }),
            out.end());
  return out;
}

// Runs the same 6-CP workload (same seed) and returns the per-CP stats.
std::vector<CpStats> run_workload(Aggregate& agg) {
  std::vector<CpStats> out;
  Rng rng(4242);
  for (int cp = 0; cp < 6; ++cp) {
    out.push_back(ConsistencyPoint::run(agg, mixed_batch(rng, 2'500)));
  }
  return out;
}

void expect_same_stats(const CpStats& a, const CpStats& b, int cp) {
  SCOPED_TRACE("cp " + std::to_string(cp));
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.blocks_freed, b.blocks_freed);
  EXPECT_EQ(a.vol_meta_blocks, b.vol_meta_blocks);
  EXPECT_EQ(a.agg_meta_blocks, b.agg_meta_blocks);
  EXPECT_EQ(a.meta_flush_blocks, b.meta_flush_blocks);
  EXPECT_EQ(a.tetrises, b.tetrises);
  EXPECT_EQ(a.full_stripes, b.full_stripes);
  EXPECT_EQ(a.partial_stripes, b.partial_stripes);
  EXPECT_EQ(a.parity_read_blocks, b.parity_read_blocks);
  EXPECT_EQ(a.write_chains, b.write_chains);
  EXPECT_EQ(a.storage_time_ns, b.storage_time_ns);
  EXPECT_EQ(a.hbps_replenishes, b.hbps_replenishes);
  EXPECT_EQ(a.vol_bits_scanned, b.vol_bits_scanned);
  EXPECT_EQ(a.agg_bits_scanned, b.agg_bits_scanned);
  EXPECT_EQ(a.agg_pick_free_frac.count(), b.agg_pick_free_frac.count());
  EXPECT_DOUBLE_EQ(a.agg_pick_free_frac.mean(), b.agg_pick_free_frac.mean());
}

// Every persisted byte: aggregate bitmap metafile, TopAA slots and the
// per-volume metafile stores, compared block by block via peek (bypassing
// any in-memory caches — this is the media a crash would leave behind).
void expect_same_media(Aggregate& a, Aggregate& b) {
  alignas(8) std::byte ba[kBlockSize];
  alignas(8) std::byte bb[kBlockSize];
  const auto cmp = [&](const BlockStore& sa, const BlockStore& sb,
                       const char* tag) {
    ASSERT_EQ(sa.capacity_blocks(), sb.capacity_blocks());
    for (std::uint64_t blk = 0; blk < sa.capacity_blocks(); ++blk) {
      sa.peek(blk, ba);
      sb.peek(blk, bb);
      ASSERT_EQ(std::memcmp(ba, bb, kBlockSize), 0)
          << tag << " block " << blk << " differs between worker counts";
    }
  };
  cmp(a.meta_store(), b.meta_store(), "agg meta");
  cmp(a.topaa_store(), b.topaa_store(), "agg topaa");
  ASSERT_EQ(a.volume_count(), b.volume_count());
  for (VolumeId v = 0; v < a.volume_count(); ++v) {
    cmp(a.volume(v).store(), b.volume(v).store(), "vol store");
  }
}

// Bit-identical end state: activemap words, per-group scoreboards, and the
// persisted TopAA bytes (1 block for heap groups, 2 for HBPS pools; the
// unwritten tail of a heap group's slot reads as zeroes in both).
void expect_same_state(Aggregate& a, Aggregate& b) {
  ASSERT_EQ(a.total_blocks(), b.total_blocks());
  EXPECT_EQ(a.free_blocks(), b.free_blocks());
  EXPECT_EQ(a.activemap().metafile().bits().words(),
            b.activemap().metafile().bits().words());
  ASSERT_EQ(a.raid_group_count(), b.raid_group_count());
  for (RaidGroupId rg = 0; rg < a.raid_group_count(); ++rg) {
    SCOPED_TRACE("rg " + std::to_string(rg));
    const AaScoreBoard& board_a = a.rg_scoreboard(rg);
    const AaScoreBoard& board_b = b.rg_scoreboard(rg);
    ASSERT_EQ(board_a.aa_count(), board_b.aa_count());
    for (AaId aa = 0; aa < board_a.aa_count(); ++aa) {
      ASSERT_EQ(board_a.score(aa), board_b.score(aa)) << "aa " << aa;
    }
    for (std::uint64_t blk = 0; blk < TopAaFile::kRaidAgnosticBlocks; ++blk) {
      std::array<std::byte, kBlockSize> buf_a{};
      std::array<std::byte, kBlockSize> buf_b{};
      a.topaa_store().read(a.rg_topaa_block(rg) + blk, buf_a);
      b.topaa_store().read(b.rg_topaa_block(rg) + blk, buf_b);
      EXPECT_EQ(buf_a, buf_b) << "TopAA block " << blk;
    }
  }
  expect_same_media(a, b);
}

// The oracle: a serial run (workers = 0, no pool) of the seeded multi-CP
// workload, against which every pooled run — including a 1-worker pool,
// which exercises the parallel code path without concurrency — must be
// bit-identical, in both geometries, and under kRandom (per-group Rng
// streams) in geometry 0.
TEST(CpDeterminism, WorkerCountInvariant) {
  const std::pair<int, AaSelectPolicy> variants[] = {
      {0, AaSelectPolicy::kCache},
      {1, AaSelectPolicy::kCache},
      {0, AaSelectPolicy::kRandom}};
  for (const auto& [geo, policy] : variants) {
    SCOPED_TRACE("geometry " + std::to_string(geo) + ", policy " +
                 std::to_string(static_cast<int>(policy)));
    auto serial = make_agg(geo, nullptr, policy);
    const auto serial_stats = run_workload(*serial);

    for (const std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      ThreadPool pool(workers);
      auto parallel = make_agg(geo, &pool, policy);
      const auto parallel_stats = run_workload(*parallel);
      ASSERT_EQ(serial_stats.size(), parallel_stats.size());
      for (std::size_t cp = 0; cp < serial_stats.size(); ++cp) {
        expect_same_stats(serial_stats[cp], parallel_stats[cp],
                          static_cast<int>(cp));
      }
      expect_same_state(*serial, *parallel);
    }
  }
}

TEST(CpDeterminism, RepeatedParallelRunsIdentical) {
  // Same pool size twice: rules out run-to-run scheduling effects (the
  // classic symptom of a hidden ordering dependence).
  ThreadPool pool_a(8);
  ThreadPool pool_b(8);
  auto first = make_agg(0, &pool_a);
  auto second = make_agg(0, &pool_b);
  const auto stats_a = run_workload(*first);
  const auto stats_b = run_workload(*second);
  for (std::size_t cp = 0; cp < stats_a.size(); ++cp) {
    expect_same_stats(stats_a[cp], stats_b[cp], static_cast<int>(cp));
  }
  expect_same_state(*first, *second);
}

// The overlapped-driver oracle (DESIGN.md §13): freeze() captures exactly
// the blocks submitted so far, in submission order, so a run that admits
// intake *while a drain is in flight* must leave bit-identical media and
// stats to a stop-the-world run of the same batches — at every worker
// count, in both geometries.  The STW comparator runs each seeded batch as
// two half-CPs, because the overlapped side freezes the first half, takes
// the second half as intake during the drain, and freezes it as the next
// CP.  Between the halves (every other CP) volume 0 takes a snapshot and
// deletes the previous one — through the driver, which quiesces the drain,
// and directly on the FlexVol in the STW run — so the deletion's delayed
// frees and their richest-region-first reclaim are compared too.
std::vector<std::uint64_t> pending_delayed_frees(const Aggregate& agg) {
  std::vector<std::uint64_t> out;
  for (VolumeId v = 0; v < agg.volume_count(); ++v) {
    out.push_back(agg.volume(v).pending_delayed_frees());
  }
  return out;
}

TEST(CpDeterminism, OverlappedMatchesStopTheWorld) {
  for (int geo = 0; geo < kGeometries; ++geo) {
    SCOPED_TRACE("geometry " + std::to_string(geo));
    auto stw = make_agg(geo);
    CpStats stw_total;
    std::vector<std::vector<std::uint64_t>> stw_pending;
    {
      Rng rng(4242);
      std::optional<SnapId> snap;
      for (int cp = 0; cp < 6; ++cp) {
        const auto batch = mixed_batch(rng, 2'500);
        const std::span<const DirtyBlock> all(batch);
        const std::size_t half = all.size() / 2;
        stw_total.merge(ConsistencyPoint::run(*stw, all.subspan(0, half)));
        const SnapId next = stw->volume(0).create_snapshot();
        if (snap) stw->volume(0).delete_snapshot(*snap);
        snap = next;
        stw_pending.push_back(pending_delayed_frees(*stw));
        stw_total.merge(ConsistencyPoint::run(*stw, all.subspan(half)));
      }
      stw_pending.push_back(pending_delayed_frees(*stw));
    }
    // The guard must see delayed frees actually logged.
    ASSERT_GT(stw_pending[2][0], 0u);

    for (const std::size_t workers : {0u, 1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      std::optional<ThreadPool> pool;
      if (workers > 0) pool.emplace(workers);
      auto ov = make_agg(geo, pool ? &*pool : nullptr);
      OverlappedCpDriver driver(*ov);
      std::vector<std::vector<std::uint64_t>> ov_pending;
      Rng rng(4242);
      std::optional<SnapId> snap;
      for (int cp = 0; cp < 6; ++cp) {
        const auto batch = mixed_batch(rng, 2'500);
        const std::span<const DirtyBlock> all(batch);
        const std::size_t half = all.size() / 2;
        driver.submit(all.subspan(0, half));
        driver.start_cp();  // freeze the first half; drain it in background
        // Intake while that drain runs: lands in the active generation.
        driver.submit(all.subspan(half));
        // Snapshot ops quiesce the drain of the first half first.
        const SnapId next = driver.create_snapshot(0);
        if (snap) driver.delete_snapshot(0, *snap);
        snap = next;
        ov_pending.push_back(pending_delayed_frees(*ov));
        driver.start_cp();  // quiesce, then freeze the second half
        driver.wait_idle();
      }
      ov_pending.push_back(pending_delayed_frees(*ov));
      EXPECT_EQ(driver.stats().cps_completed, 12u);
      expect_same_stats(stw_total, driver.stats().cp, -1);
      expect_same_state(*stw, *ov);
      EXPECT_EQ(stw_pending, ov_pending);
    }
  }
}

// The sharded-intake oracle (DESIGN.md §14): determinism by construction.
// A shard's dirty list is in claim-winner program order and the freeze
// folds shards 0..S-1, so the only interleaving-dependent input is the
// ROUTING of blocks to shards.  Fix the routing by content (a hash of
// (vol, logical)) and hand writer t of T the shard subset {j : j % T == t}
// via submit_to_shard: every shard then sees the same subsequence of the
// batch in the same order at ANY writer count, and the fold — hence the
// CP and the media — must be byte-identical to the single-writer run.
std::size_t shard_of(const DirtyBlock& b, std::size_t shards) {
  std::uint64_t h =
      (static_cast<std::uint64_t>(b.vol) << 32) ^ b.logical;
  h *= 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  return static_cast<std::size_t>(h % shards);
}

OverlapStats run_sharded_intake(Aggregate& agg, unsigned writers) {
  OverlappedCpDriver driver(agg);
  const std::size_t shards = driver.intake_shards();
  Rng rng(4242);
  for (int cp = 0; cp < 6; ++cp) {
    const auto batch = mixed_batch(rng, 2'500);
    // Content-keyed split: slice j is the batch subsequence routed to
    // shard j, the same sequence no matter how many writers deliver it.
    std::vector<std::vector<DirtyBlock>> slices(shards);
    for (const DirtyBlock& b : batch) {
      slices[shard_of(b, shards)].push_back(b);
    }
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (unsigned t = 0; t < writers; ++t) {
      threads.emplace_back([&driver, &slices, shards, writers, t] {
        for (std::size_t j = t; j < shards; j += writers) {
          driver.submit_to_shard(j, slices[j]);
        }
      });
    }
    for (auto& th : threads) th.join();
    driver.start_cp();  // next batch's intake overlaps this drain
  }
  driver.wait_idle();
  return driver.stats();
}

TEST(CpDeterminism, ConcurrentIntakeMatchesSerial) {
  for (int geo = 0; geo < kGeometries; ++geo) {
    SCOPED_TRACE("geometry " + std::to_string(geo));
    auto serial = make_agg(geo);
    const OverlapStats base = run_sharded_intake(*serial, 1);
    EXPECT_EQ(base.cps_completed, 6u);

    for (const unsigned writers : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::to_string(writers) + " writers");
      auto conc = make_agg(geo);
      const OverlapStats s = run_sharded_intake(*conc, writers);
      EXPECT_EQ(s.cps_completed, base.cps_completed);
      EXPECT_EQ(s.blocks_admitted, base.blocks_admitted);
      EXPECT_EQ(s.blocks_coalesced, base.blocks_coalesced);
      expect_same_stats(base.cp, s.cp, -1);
      expect_same_state(*serial, *conc);
    }
  }
}

TEST(CpDeterminism, MountAfterParallelCpsSeedsFromTopAa) {
  // The TopAA images built in the fanned-out phase and committed serially
  // must be valid for mount, for every group kind and geometry.
  for (int geo = 0; geo < kGeometries; ++geo) {
    SCOPED_TRACE("geometry " + std::to_string(geo));
    ThreadPool pool(8);
    auto agg = make_agg(geo, &pool);
    run_workload(*agg);
    EXPECT_EQ(agg->mount_from_topaa(), agg->raid_group_count());
  }
}

}  // namespace
}  // namespace wafl
