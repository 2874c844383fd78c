// Crash-consistency: named crash-point scenarios (DESIGN.md §9).
//
// Each test freezes the CP boundary at one specific gap in its persistence
// sequence — bitmap flushed but no TopAA committed, between per-group
// TopAA commits, TopAA committed but the bitmap flush lost, mid-parallel
// boundary, between volume commits — and proves the recovery invariants
// through CrashHarness: both mount paths converge, Iron repairs exactly
// what the gap left stale and is idempotent, recovery is deterministic,
// and a follow-up CP lands identically on either recovery.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "fault/crash_point.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "support/crash_harness.hpp"
#include "wafl/mount.hpp"

namespace wafl {
namespace {

using test::CrashCaseConfig;
using test::CrashHarness;
using test::CrashVerdict;

CrashCaseConfig base_config(std::uint64_t seed) {
  CrashCaseConfig cfg;
  cfg.seed = seed;
  cfg.clean_cps = 3;
  return cfg;
}

/// The media of two harnesses must be byte-identical (worker-count
/// determinism: the boundary phase stages but never writes, and the
/// parallel flush/commit phases write deterministic bytes to
/// deterministic blocks — only the write ORDER varies with workers, so a
/// crash at a serial point leaves identical bytes at every worker count).
void expect_same_media(CrashHarness& a, CrashHarness& b) {
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
  cmp(a.aggregate().meta_store(), b.aggregate().meta_store(), "agg meta");
  cmp(a.aggregate().topaa_store(), b.aggregate().topaa_store(), "agg topaa");
  for (VolumeId v = 0; v < a.aggregate().volume_count(); ++v) {
    cmp(a.aggregate().volume(v).store(), b.aggregate().volume(v).store(),
        "vol store");
  }
}

TEST(CrashRecovery, BitmapNewTopAaOld) {
  // Crash after the bitmap flush, before ANY per-group TopAA commit: the
  // acceptance case "crash between bitmap flush and TopAA commit".  The
  // groups' persisted TopAA still describes the previous CP; Iron must
  // find it stale and rewrite it on both mount paths.
  CrashCaseConfig cfg = base_config(101);
  cfg.crash_hook = "wa.before_topaa_commit";
  cfg.crash_hook_nth = 1;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "wa.before_topaa_commit");
  EXPECT_TRUE(v.ok()) << v.message();
  // A heap group's TopAA holds every AA with exact scores here (16 AAs
  // fit in the 510-entry block), so any churn makes it stale.
  EXPECT_GE(v.iron_rewrites, 1u);
}

TEST(CrashRecovery, BetweenGroupTopAaCommits) {
  // Group 0 committed its TopAA, group 1 did not: mixed-generation TopAA
  // across groups, the torn-cache shape §3.4's per-group checksums exist
  // for.
  CrashCaseConfig cfg = base_config(202);
  cfg.crash_hook = "wa.before_topaa_commit";
  cfg.crash_hook_nth = 2;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, TopAaNewBitmapOld) {
  // The reverse acceptance case: every TopAA commit reached the media but
  // the bitmap flush was lost (volatile-cache drop), then the crash.  The
  // recovered bitmaps are one CP older than the TopAA, which must read as
  // "stale cache" — never as truth.
  CrashCaseConfig cfg = base_config(303);
  cfg.crash_hook = "wa.after_topaa_commits";
  CrashHarness h(cfg);
  h.run_clean_cps();

  fault::FaultPlan drop;
  drop.seed = 7;
  drop.dropped_write_prob = 1.0;
  {
    fault::FaultEngine drop_engine(drop);
    h.aggregate().meta_store().set_fault_injector(&drop_engine);
    const std::string fired = h.run_crash_cp();
    h.aggregate().meta_store().set_fault_injector(nullptr);
    EXPECT_EQ(fired, "wa.after_topaa_commits");
    h.add_journal(drop_engine.journal());
    EXPECT_GT(drop_engine.journal().size(), 0u);
  }
  const CrashVerdict v = h.verify_recovery();
  EXPECT_TRUE(v.ok()) << v.message();
  // The aggregate TopAA is newer than the bitmaps: stale, rewritten.
  EXPECT_GE(v.iron_rewrites, 1u);
}

TEST(CrashRecovery, CrashInsideParallelBoundary) {
  // The crash fires on a pool thread inside the group-parallel boundary
  // phase; the ThreadPool rethrows it on the CP thread.  Nothing was
  // persisted this CP, so recovery sees the previous committed state.
  CrashCaseConfig cfg = base_config(404);
  cfg.workers = 8;
  cfg.crash_hook = "rg.after_frees";
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "rg.after_frees");
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, MidParallelAllocation) {
  // The crash fires on a pool thread inside the execute phase of the
  // plan/execute allocator: some groups have filled tetris windows and
  // staged activemap bits, others have not started, and with 8 workers
  // which is which is an interleaving accident.  Nothing of this CP is
  // persisted during allocation (device models are simulation state), so
  // the surviving media is exactly the previous committed CP and the full
  // invariant suite must hold over it.
  CrashCaseConfig cfg = base_config(1717);
  cfg.workers = 8;
  cfg.crash_hook = "wa.in_alloc_execute";
  cfg.crash_hook_nth = 2;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "wa.in_alloc_execute");
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, CrashDuringOverlap) {
  // The crash fires on the drain thread at the top of the frozen
  // generation's boundary drain while the intake thread is concurrently
  // admitting the next generation's blocks through the OverlappedCpDriver.
  // The admitted-but-unfrozen intake is in-memory only, so recovery must
  // see exactly the previous committed CP (DESIGN.md §13 crash
  // semantics: a lost active generation is indistinguishable from a
  // crash between CPs).
  CrashCaseConfig cfg = base_config(2020);
  cfg.workers = 8;
  cfg.overlapped = true;
  cfg.crash_hook = "wa.in_overlap_drain";
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "wa.in_overlap_drain");
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, CrashDuringFreeze) {
  // The crash fires inside the overlapped driver's freeze with every
  // shard lock held, before any shard folds (DESIGN.md §14).  Two writer
  // threads admitted the first half of the batch through submit_to_shard
  // and are joined when the hook fires — what dies is the shards'
  // unfrozen intake, byte-for-byte indistinguishable from blocks that
  // were never allocated, so I-A..I-D must hold over exactly the last
  // committed CP.
  CrashCaseConfig cfg = base_config(2323);
  cfg.workers = 2;
  cfg.overlapped = true;
  cfg.concurrent_intake = true;
  cfg.crash_hook = "cp.in_freeze";
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "cp.in_freeze");
  EXPECT_TRUE(v.ok()) << v.message();
  // Nothing of the crash CP reached media: Iron finds nothing stale.
  EXPECT_EQ(v.iron_rewrites, 0u);
}

TEST(CrashRecovery, CrashInGenerationSwap) {
  // The crash fires inside ConsistencyPoint::freeze(), right after the
  // aggregate began its CP interval and while the previous CP's drain may
  // have just finished.  The freeze touches no media, so recovery still
  // converges on the last committed CP.
  CrashCaseConfig cfg = base_config(2121);
  cfg.overlapped = true;
  cfg.crash_hook = "cp.in_gen_swap";
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "cp.in_gen_swap");
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, BetweenVolumeCommits) {
  // Volume 0 flushed its bitmap and TopAA, volume 1 (and the aggregate)
  // did not — the cross-object gap of the CP's serial phase 3.
  CrashCaseConfig cfg = base_config(505);
  cfg.crash_hook = "cp.before_volume_finish";
  cfg.crash_hook_nth = 2;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, WriteCountTornCrash) {
  // Engine-triggered crash: the 3rd metafile write of the crash CP is
  // torn mid-block, then the "machine" dies.  The I-D check must explain
  // the torn block from the journal.
  CrashCaseConfig cfg = base_config(606);
  cfg.plan.crash_after_writes = 3;
  cfg.plan.crash_write_fault = fault::CrashWriteFault::kTorn;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "store.write");
  EXPECT_GE(v.torn_writes, 1u);
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, WriteCountDroppedCrash) {
  CrashCaseConfig cfg = base_config(707);
  cfg.plan.crash_after_writes = 5;
  cfg.plan.crash_write_fault = fault::CrashWriteFault::kDropped;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_GE(v.dropped_writes, 1u);
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, CrashDuringRecoveryMount) {
  // The machine dies again during recovery, mid-mount.  Recovery writes
  // nothing, so a second attempt over the same bytes must succeed and the
  // full invariant suite must hold.
  CrashCaseConfig cfg = base_config(808);
  cfg.crash_hook = "wa.before_bitmap_flush";
  CrashHarness h(cfg);
  h.run_clean_cps();
  ASSERT_EQ(h.run_crash_cp(), "wa.before_bitmap_flush");

  fault::crash_hooks().arm("mount.before_vol_seed", 2);
  EXPECT_THROW(h.recover(/*use_topaa=*/true), fault::CrashPoint);
  fault::crash_hooks().disarm_all();

  const CrashVerdict v = h.verify_recovery();
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, MidParallelBitmapFlush) {
  // Crash INSIDE the parallel metafile flush: some dirty bitmap blocks
  // reached the media, others did not, and with 2 workers which ones is
  // an interleaving accident.  Recovery must converge from any such
  // prefix — each flushed block is individually sound, and Iron
  // reconciles the TopAA (never committed here) against whatever mix of
  // old and new bitmap blocks survived.
  CrashCaseConfig cfg = base_config(1414);
  cfg.workers = 2;
  cfg.crash_hook = "wa.in_bitmap_flush";
  cfg.crash_hook_nth = 2;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "wa.in_bitmap_flush");
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, MidFlushSerialReplayExact) {
  // The same hook with workers=0 fires at a fixed serial position (after
  // exactly one block flushed, dirty order) — the replay-exact anchor the
  // parallel case's interleaving-agnostic invariants are measured against.
  CrashCaseConfig cfg = base_config(1515);
  cfg.object_store_pool = true;
  cfg.crash_hook = "wa.in_bitmap_flush";
  cfg.crash_hook_nth = 2;
  CrashHarness h(cfg);
  h.run_clean_cps();
  ASSERT_EQ(h.run_crash_cp(), "wa.in_bitmap_flush");
  const CrashVerdict v = h.verify_recovery();
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, HbpsPoolCrash) {
  // Heap (HDD) and HBPS (object-store pool) groups in one aggregate; the
  // crash lands before the pool's TopAA commit (third group).
  CrashCaseConfig cfg = base_config(909);
  cfg.object_store_pool = true;
  cfg.workers = 2;
  cfg.crash_hook = "wa.before_topaa_commit";
  cfg.crash_hook_nth = 3;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, RecoveryMountBitRot) {
  // The TopAA reads of the first recovery's mount hit bit-rot; the
  // checksum rejects rotted blocks and the per-group fallback covers.
  // The media itself is honest, so everything still converges.
  CrashCaseConfig cfg = base_config(1010);
  cfg.crash_hook = "wa.after_bitmap_flush";
  cfg.recovery_bitrot_prob = 1.0;  // every TopAA read rots
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, CleanShutdownControl) {
  // Control: no trigger, the "crash CP" completes.  Recovery of a cleanly
  // shut-down aggregate finds nothing stale.
  CrashCaseConfig cfg = base_config(1111);
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_FALSE(v.crashed);
  EXPECT_TRUE(v.ok()) << v.message();
  EXPECT_EQ(v.iron_rewrites, 0u);
}

TEST(CrashRecovery, MediaIdenticalAcrossWorkerCounts) {
  // Acceptance: the same crash at the same serial point leaves the same
  // bytes on media at 1, 2 and 8 CP workers (and serially) — so recovery
  // proofs at one worker count transfer to all.
  constexpr unsigned kWorkers[] = {0, 1, 2, 8};
  std::vector<std::unique_ptr<CrashHarness>> runs;
  for (const unsigned w : kWorkers) {
    CrashCaseConfig cfg = base_config(1212);
    cfg.object_store_pool = true;
    cfg.workers = w;
    cfg.crash_hook = "wa.before_bitmap_flush";
    runs.push_back(std::make_unique<CrashHarness>(cfg));
    runs.back()->run_clean_cps();
    ASSERT_EQ(runs.back()->run_crash_cp(), "wa.before_bitmap_flush");
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_media(*runs[0], *runs[i]);
  }
  for (auto& run : runs) {
    const CrashVerdict v = run->verify_recovery();
    EXPECT_TRUE(v.ok()) << v.message();
  }
}

TEST(CrashRecovery, FaultCountersFlowThroughObs) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  } else {
    obs::Registry& reg = obs::registry();
    const std::uint64_t crashes0 =
        reg.counter("wafl.fault.crashes_injected").value();
    const std::uint64_t torn0 = reg.counter("wafl.fault.torn_writes").value();
    const std::uint64_t iron0 = reg.counter("wafl.iron.rewrites").value();
    const std::uint64_t runs0 = reg.counter("wafl.iron.runs").value();

    CrashCaseConfig cfg = base_config(1313);
    cfg.plan.crash_after_writes = 2;
    cfg.plan.crash_write_fault = fault::CrashWriteFault::kTorn;
    CrashHarness h(cfg);
    const CrashVerdict v = h.run_all();
    EXPECT_TRUE(v.crashed);
    EXPECT_TRUE(v.ok()) << v.message();

    EXPECT_GE(reg.counter("wafl.fault.crashes_injected").value(),
              crashes0 + 1);
    EXPECT_GE(reg.counter("wafl.fault.torn_writes").value(), torn0 + 1);
    // verify_recovery runs Iron at least 5 times (2 + idempotence + R3).
    EXPECT_GE(reg.counter("wafl.iron.runs").value(), runs0 + 5);
    EXPECT_GE(reg.counter("wafl.iron.rewrites").value(),
              iron0 + v.iron_rewrites);
  }
}

TEST(CrashRecovery, FlightRecorderDumpNamesTheHook) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  } else {
    // The black box must tie an injected crash back to the exact hook:
    // the dump carries the crash note (hook name + ordinal), the partial
    // span tree of the crashed CP, and counter deltas since the mark.
    CrashCaseConfig cfg = base_config(1717);
    cfg.workers = 2;
    cfg.crash_hook = "wa.before_bitmap_flush";
    CrashHarness h(cfg);
    const CrashVerdict v = h.run_all();
    EXPECT_TRUE(v.crashed);
    EXPECT_TRUE(v.ok()) << v.message();
    ASSERT_FALSE(v.flight_dump.empty());
    EXPECT_NE(v.flight_dump.find("wa.before_bitmap_flush"),
              std::string::npos)
        << v.flight_dump;
    // The crashed CP's spans unwound into the recorder: the CP root and
    // the phases that completed before the hook fired are all present.
    EXPECT_NE(v.flight_dump.find("cp"), std::string::npos);
    EXPECT_NE(v.flight_dump.find("fc.boundary"), std::string::npos)
        << v.flight_dump;
    EXPECT_NE(v.flight_dump.find("wafl.fault.crashes_injected"),
              std::string::npos)
        << v.flight_dump;
  }
}

TEST(CrashRecovery, WriteCountCrashDumpNamesStoreWrite) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  } else {
    // The FaultEngine's write-count trigger notes through the same path
    // as named hooks, so count-triggered crashes localize too.
    CrashCaseConfig cfg = base_config(1818);
    cfg.plan.crash_after_writes = 2;
    CrashHarness h(cfg);
    const CrashVerdict v = h.run_all();
    EXPECT_TRUE(v.crashed);
    EXPECT_TRUE(v.ok()) << v.message();
    ASSERT_FALSE(v.flight_dump.empty());
    EXPECT_NE(v.flight_dump.find("store.write"), std::string::npos)
        << v.flight_dump;
  }
}

TEST(CrashRecovery, CrashInParallelIronVerify) {
  // The machine dies inside Iron's parallel verify fan-out, mid-repair of
  // two corrupted TopAA slots.  The fan-out stages images without
  // writing, so the crash loses only staged state: the surviving media
  // still carries the corruption, and the subsequent verify_recovery()
  // recoveries must find, repair, and converge exactly as if the first
  // repair had never started.
  CrashCaseConfig cfg = base_config(909);
  cfg.workers = 8;
  cfg.crash_hook = "iron.in_parallel_verify";
  cfg.crash_hook_nth = 2;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "iron.in_parallel_verify");
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, CrashMidIronRepairApply) {
  // The crash lands inside the serial apply, after some staged repairs
  // reached media and before others — the partially-repaired prefix.
  // TopAA is a pure cache (outside invariant I-D), so any prefix is
  // idempotently completable: verify_recovery()'s own Iron run must
  // finish the job and both mount paths converge.
  CrashCaseConfig cfg = base_config(910);
  cfg.workers = 2;
  cfg.crash_hook = "iron.in_repair_apply";
  cfg.crash_hook_nth = 3;
  CrashHarness h(cfg);
  const CrashVerdict v = h.run_all();
  EXPECT_TRUE(v.crashed);
  EXPECT_EQ(v.crash_point, "iron.in_repair_apply");
  EXPECT_TRUE(v.ok()) << v.message();
}

TEST(CrashRecovery, IronCrashSerialAndParallelLeaveSameMedia) {
  // A crash at the same apply-point must freeze byte-identical media at
  // every worker count: verify staging is write-free and the apply order
  // is fixed, so the nth apply hook fires with the same prefix of
  // repairs landed whatever the verify scheduling was.
  auto run = [](unsigned workers) {
    CrashCaseConfig cfg = base_config(911);
    cfg.workers = workers;
    cfg.crash_hook = "iron.in_repair_apply";
    cfg.crash_hook_nth = 2;
    auto h = std::make_unique<CrashHarness>(cfg);
    h->run_clean_cps();
    h->run_crash_cp();
    h->maybe_crash_during_repair();
    return h;
  };
  auto serial = run(0);
  auto parallel = run(8);
  expect_same_media(*serial, *parallel);
  const CrashVerdict vs = serial->verify_recovery();
  EXPECT_TRUE(vs.ok()) << vs.message();
  const CrashVerdict vp = parallel->verify_recovery();
  EXPECT_TRUE(vp.ok()) << vp.message();
}

}  // namespace
}  // namespace wafl
