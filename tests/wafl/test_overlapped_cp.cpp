// OverlappedCpDriver contract (DESIGN.md §13): intake fills the active
// generation (driver-owned buffers only), start_cp freezes it and drains
// asynchronously, submit keeps admitting during the drain and blocks only
// on the backpressure rule.  The byte-identity oracle against the
// stop-the-world path lives in test_cp_determinism.cpp; here we cover the
// driver protocol itself — coalescing, backpressure, error propagation,
// snapshot ordering — plus the concurrent intake-while-drain stress that
// tools/check.sh --tsan runs under ThreadSanitizer.
#include "wafl/overlapped_cp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "fault/crash_point.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wafl/runtime.hpp"

namespace wafl {
namespace {

constexpr std::size_t kVols = 2;

std::unique_ptr<Aggregate> make_agg(ThreadPool* pool = nullptr,
                                    DrainExecutor* exec = nullptr) {
  AggregateConfig cfg;
  RaidGroupConfig hdd;
  hdd.data_devices = 4;
  hdd.parity_devices = 1;
  hdd.device_blocks = 64 * 1024;
  hdd.media.type = MediaType::kHdd;
  hdd.aa_stripes = 2048;
  cfg.raid_groups = {hdd, hdd};
  auto agg = std::make_unique<Aggregate>(
      cfg, 77, Runtime{}.with_pool(pool).with_drain_executor(exec));
  for (std::size_t v = 0; v < kVols; ++v) {
    FlexVolConfig vol;
    vol.file_blocks = 30'000;
    vol.vvbn_blocks = 3ull * kFlatAaBlocks;
    vol.aa_blocks = 8192;
    agg->add_volume(vol);
  }
  return agg;
}

std::vector<DirtyBlock> batch(Rng& rng, std::uint64_t n) {
  std::vector<DirtyBlock> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(
        {static_cast<VolumeId>(rng.below(kVols)), rng.below(25'000)});
  }
  return out;
}

TEST(OverlappedCp, DrainsWhatWasSubmitted) {
  auto agg = make_agg();
  OverlappedCpDriver driver(*agg);
  Rng rng(1);
  driver.submit(batch(rng, 4000));
  driver.start_cp();
  driver.wait_idle();
  const OverlapStats s = driver.stats();
  EXPECT_EQ(s.cps_started, 1u);
  EXPECT_EQ(s.cps_completed, 1u);
  EXPECT_EQ(s.blocks_admitted, 4000u);
  EXPECT_GT(s.cp.blocks_written, 0u);
  EXPECT_GT(s.drain_ns, 0u);
  EXPECT_EQ(driver.active_dirty(), 0u);
  EXPECT_FALSE(driver.drain_in_flight());
}

TEST(OverlappedCp, CoalescesRedirtiedBlocksPerGeneration) {
  auto agg = make_agg();
  OverlappedCpDriver driver(*agg);
  driver.submit(0, 42);
  driver.submit(0, 42);  // same generation: coalesced
  driver.submit(1, 42);  // different volume: distinct
  EXPECT_EQ(driver.active_dirty(), 2u);
  EXPECT_EQ(driver.stats().blocks_admitted, 3u);
  driver.start_cp();
  // The freeze swapped generations: the same block is admissible again.
  driver.submit(0, 42);
  EXPECT_EQ(driver.active_dirty(), 1u);
  driver.start_cp();
  driver.wait_idle();
  EXPECT_EQ(driver.stats().cps_completed, 2u);
  EXPECT_EQ(driver.active_dirty(), 0u);
}

TEST(OverlappedCp, NoBackpressureWithoutDrainInFlight) {
  auto agg = make_agg();
  OverlappedCpConfig cfg;
  cfg.dirty_high_watermark = 8;
  OverlappedCpDriver driver(*agg, cfg);
  Rng rng(2);
  // Far past the watermark with no drain in flight: the rule must not
  // apply (it would deadlock — nothing can shrink the active generation).
  driver.submit(batch(rng, 1000));
  EXPECT_EQ(driver.stats().submit_stalls, 0u);
  driver.start_cp();
  driver.wait_idle();
}

TEST(OverlappedCp, BackpressureStallsUntilDrainCompletes) {
  auto agg = make_agg();
  OverlappedCpConfig cfg;
  cfg.dirty_high_watermark = 4;
  OverlappedCpDriver driver(*agg, cfg);
  Rng rng(3);
  // The first submit at the watermark while a drain is in flight must
  // stall until the drain completes (the only event that can end the
  // pressure).  A 20k-block drain runs for milliseconds against
  // microsecond submits, so one round all but guarantees a stall — but a
  // preempted control thread can lose that race on a loaded box, so retry
  // with a fresh generation until one sticks.
  std::uint64_t logical = 0;
  std::uint64_t cps = 0;
  for (int round = 0; round < 32 && driver.stats().submit_stalls == 0;
       ++round) {
    driver.submit(batch(rng, 20'000));
    driver.start_cp();
    ++cps;
    while (driver.drain_in_flight()) {
      driver.submit(0, logical++ % 25'000);
    }
  }
  const OverlapStats s = driver.stats();
  EXPECT_GE(s.submit_stalls, 1u);
  EXPECT_GT(s.stall_ns, 0u);
  driver.start_cp();  // sweep the leftovers
  driver.wait_idle();
  EXPECT_EQ(driver.stats().cps_completed, cps + 1);
  EXPECT_EQ(driver.active_dirty(), 0u);
}

TEST(OverlappedCp, AutoTriggerStartsCpFromSubmit) {
  auto agg = make_agg();
  OverlappedCpConfig cfg;
  cfg.auto_cp_trigger = 512;
  OverlappedCpDriver driver(*agg, cfg);
  Rng rng(4);
  for (int i = 0; i < 8; ++i) {
    driver.submit(batch(rng, 256));
  }
  driver.wait_idle();
  EXPECT_GE(driver.stats().cps_started, 1u);
  driver.start_cp();
  driver.wait_idle();
  EXPECT_EQ(driver.active_dirty(), 0u);
  EXPECT_EQ(driver.stats().cps_started, driver.stats().cps_completed);
}

// tools/check.sh --tsan target: many submitter threads race intake against
// back-to-back drains on a pooled CP.  Correctness here is "TSAN-clean
// plus conservation": every admitted block is either drained or still in
// the active generation at the end.
TEST(OverlappedCp, ConcurrentIntakeDuringDrainStress) {
  ThreadPool pool(4);
  auto agg = make_agg(&pool);
  OverlappedCpDriver driver(*agg);
  constexpr int kThreads = 4;
  constexpr int kBatches = 40;
  std::atomic<int> live{kThreads};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&driver, &live, t] {
      Rng rng(100u + static_cast<unsigned>(t));
      for (int i = 0; i < kBatches; ++i) {
        driver.submit(batch(rng, 64));
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  // Control stays on this thread: freeze whatever has accumulated, over
  // and over, while the writers race the drains.
  while (live.load(std::memory_order_acquire) > 0) {
    if (driver.active_dirty() > 0) {
      driver.start_cp();
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& w : writers) w.join();
  driver.start_cp();  // sweep the tail generation
  driver.wait_idle();
  const OverlapStats s = driver.stats();
  EXPECT_EQ(s.blocks_admitted,
            static_cast<std::uint64_t>(kThreads) * kBatches * 64);
  EXPECT_EQ(s.cps_started, s.cps_completed);
  // The control loop usually lands many mid-stream freezes, but a fully
  // starved control thread can legitimately fold everything into the one
  // final sweep — only the sweep itself is guaranteed.
  EXPECT_GE(s.cps_completed, 1u);
  EXPECT_EQ(driver.active_dirty(), 0u);
}

TEST(OverlappedCp, DrainErrorRethrownAtWaitIdle) {
  auto agg = make_agg();
  OverlappedCpDriver driver(*agg);
  Rng rng(5);
  driver.submit(batch(rng, 1000));
  fault::crash_hooks().arm("wa.in_overlap_drain", 1);
  driver.start_cp();
  driver.submit(0, 7);  // intake stays admissible while the drain dies
  EXPECT_THROW(driver.wait_idle(), fault::CrashPoint);
  fault::crash_hooks().disarm_all();
  // The frozen generation died with its drain (exactly what a crash
  // loses); the active generation survives in the driver.
  EXPECT_FALSE(driver.drain_in_flight());
  EXPECT_EQ(driver.active_dirty(), 1u);
  const OverlapStats s = driver.stats();
  EXPECT_EQ(s.cps_started, 1u);
  EXPECT_EQ(s.cps_completed, 0u);
}

TEST(OverlappedCp, FreezeErrorThrownFromStartCp) {
  auto agg = make_agg();
  OverlappedCpDriver driver(*agg);
  driver.submit(0, 1);
  fault::crash_hooks().arm("cp.in_gen_swap", 1);
  EXPECT_THROW(driver.start_cp(), fault::CrashPoint);
  fault::crash_hooks().disarm_all();
  // The freeze failed before any drain launched: nothing in flight, no CP
  // counted.  (The aggregate after the aborted freeze is crash state —
  // recovery is the harness's job, not the driver's.)
  EXPECT_FALSE(driver.drain_in_flight());
  EXPECT_EQ(driver.stats().cps_started, 0u);
}

TEST(OverlappedCp, SnapshotOpsQuiesceAndFoldAtNextFreeze) {
  auto agg = make_agg();
  OverlappedCpDriver driver(*agg);
  Rng rng(6);
  driver.submit(batch(rng, 2000));
  driver.start_cp();
  driver.wait_idle();
  const SnapId snap = driver.create_snapshot(0);
  // Overwrite the same logicals: the freed old copies divert to the
  // snapshot instead of the delayed-free log.
  Rng rng2(6);
  driver.submit(batch(rng2, 2000));
  driver.start_cp();
  driver.wait_idle();
  EXPECT_EQ(agg->volume(0).pending_delayed_frees(), 0u);
  driver.delete_snapshot(0, snap);
  const std::uint64_t staged = agg->volume(0).pending_delayed_frees();
  EXPECT_GT(staged, 0u);  // delayed frees logged by the deletion
  // The next CPs drain them down, exactly like the stop-the-world path.
  while (agg->volume(0).pending_delayed_frees() > 0) {
    driver.start_cp();
    driver.wait_idle();
  }
}

TEST(OverlappedCp, DestructorJoinsInFlightDrain) {
  auto agg = make_agg();
  {
    OverlappedCpDriver driver(*agg);
    Rng rng(8);
    driver.submit(batch(rng, 8000));
    driver.start_cp();
    // Scope exit with the drain still running: the destructor joins it.
  }
  EXPECT_GT(agg->free_blocks(), 0u);
}

// Runtime-supplied DrainExecutor (DESIGN.md §16): the driver schedules
// drains on the shared executor instead of owning a thread, but every
// protocol guarantee — destructor-join, parked-exception rethrow at
// wait_idle — must hold unchanged.
TEST(OverlappedCp, SharedExecutorDestructorStillJoins) {
  DrainExecutor exec(2);
  auto agg = make_agg(nullptr, &exec);
  {
    OverlappedCpDriver driver(*agg);
    Rng rng(9);
    driver.submit(batch(rng, 6000));
    driver.start_cp();
    // Scope exit with the drain in flight on the SHARED executor: the
    // destructor waits for completion without tearing the executor down
    // (it does not own it — the executor outlives the driver).
  }
  EXPECT_GT(agg->free_blocks(), 0u);
}

TEST(OverlappedCp, SharedExecutorParkedExceptionRethrown) {
  DrainExecutor exec(1);
  auto agg = make_agg(nullptr, &exec);
  OverlappedCpDriver driver(*agg);
  Rng rng(10);
  driver.submit(batch(rng, 800));
  fault::crash_hooks().arm("wa.in_overlap_drain", 1);
  driver.start_cp();
  EXPECT_THROW(driver.wait_idle(), fault::CrashPoint);
  fault::crash_hooks().disarm_all();
  EXPECT_FALSE(driver.drain_in_flight());
  // The executor survives the parked exception: a fresh drain scheduled
  // on the same executor thread completes normally.
  driver.submit(batch(rng, 800));
  driver.start_cp();
  driver.wait_idle();
  EXPECT_EQ(driver.stats().cps_started, 2u);
  EXPECT_EQ(driver.stats().cps_completed, 1u);
}

TEST(OverlappedCp, TwoDriversShareOneExecutor) {
  // One executor thread: the two drivers' drains serialize through it,
  // and each driver's wait_idle sees only its own completion.
  DrainExecutor exec(1);
  auto a = make_agg(nullptr, &exec);
  auto b = make_agg(nullptr, &exec);
  OverlappedCpDriver da(*a);
  OverlappedCpDriver db(*b);
  Rng rng(11);
  da.submit(batch(rng, 4000));
  db.submit(batch(rng, 4000));
  da.start_cp();
  db.start_cp();
  da.wait_idle();
  db.wait_idle();
  EXPECT_EQ(da.stats().cps_completed, 1u);
  EXPECT_EQ(db.stats().cps_completed, 1u);
  EXPECT_GT(a->free_blocks(), 0u);
  EXPECT_GT(b->free_blocks(), 0u);
}

}  // namespace
}  // namespace wafl
