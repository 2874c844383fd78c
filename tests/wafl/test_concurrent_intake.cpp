// Concurrency battery for the sharded intake front end (DESIGN.md §14).
//
// test_overlapped_cp.cpp proves the driver protocol; this suite proves the
// protocol stays correct UNDER CONTENTION.  The matrix crosses writer
// counts (2/4/8) with the two pressure regimes — drain-in-flight with free
// intake, and a watermark low enough that backpressure engages against the
// drain — and every cell asserts conservation: raw submissions all count,
// claim winners all drain, and start/complete never diverge.  The
// emit-while-freeze race hammers the one window the shard design must get
// right: the freeze acquiring every shard lock while submitters race
// claims into those same shards.  tools/check.sh --tsan runs this whole
// suite under ThreadSanitizer, which is the actual proof — the asserts
// here catch lost or duplicated blocks, TSAN catches the orderings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wafl/overlapped_cp.hpp"

namespace wafl {
namespace {

constexpr std::size_t kVols = 2;

std::unique_ptr<Aggregate> make_agg(ThreadPool* pool = nullptr) {
  AggregateConfig cfg;
  RaidGroupConfig hdd;
  hdd.data_devices = 4;
  hdd.parity_devices = 1;
  hdd.device_blocks = 64 * 1024;
  hdd.media.type = MediaType::kHdd;
  hdd.aa_stripes = 2048;
  cfg.raid_groups = {hdd, hdd};
  auto agg = std::make_unique<Aggregate>(cfg, 77, Runtime{}.with_pool(pool));
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

/// Conservation invariants every matrix cell must satisfy once idle:
/// nothing lost, nothing double-counted, stall accounting coherent.
void expect_conserved(const OverlapStats& s, std::uint64_t raw_submitted) {
  EXPECT_EQ(s.blocks_admitted, raw_submitted);
  EXPECT_LE(s.blocks_coalesced, s.blocks_admitted);
  EXPECT_EQ(s.cps_started, s.cps_completed);
  EXPECT_EQ(s.submit_stalls == 0, s.stall_ns == 0);
}

// --- Matrix: writers × drain-in-flight ------------------------------------

/// N writers stream batches while the control thread freezes whatever has
/// accumulated, over and over — every freeze races live intake, every
/// drain overlaps it.  The generous watermark keeps backpressure out of
/// the picture; that regime gets its own cell below.
void run_drain_in_flight_cell(unsigned writers) {
  SCOPED_TRACE("writers=" + std::to_string(writers));
  ThreadPool pool(4);
  auto agg = make_agg(&pool);
  OverlappedCpDriver driver(*agg);
  constexpr int kBatches = 30;
  constexpr std::uint64_t kBatch = 64;
  std::atomic<unsigned> live{writers};
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (unsigned t = 0; t < writers; ++t) {
    threads.emplace_back([&driver, &live, writers, t] {
      Rng rng(1000u * writers + t);
      for (int i = 0; i < kBatches; ++i) {
        driver.submit(batch(rng, kBatch));
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  while (live.load(std::memory_order_acquire) > 0) {
    if (driver.active_dirty() > 0) {
      driver.start_cp();
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& th : threads) th.join();
  driver.start_cp();  // sweep the tail generation
  driver.wait_idle();
  const OverlapStats s = driver.stats();
  expect_conserved(s, std::uint64_t{writers} * kBatches * kBatch);
  EXPECT_EQ(driver.active_dirty(), 0u);
}

TEST(ConcurrentIntake, DrainInFlightWriters2) { run_drain_in_flight_cell(2); }
TEST(ConcurrentIntake, DrainInFlightWriters4) { run_drain_in_flight_cell(4); }
TEST(ConcurrentIntake, DrainInFlightWriters8) { run_drain_in_flight_cell(8); }

// --- Matrix: writers × backpressure-engaged -------------------------------

/// Same writer fan-in, but a tiny watermark against a long preloaded
/// drain: submits during the drain must hit the backpressure rule.  A
/// preempted round can lose the race on a loaded box (the drain finishes
/// before any writer reaches the watermark), so rounds retry like
/// OverlappedCp.BackpressureStallsUntilDrainCompletes; raw-count
/// conservation is tracked across however many rounds run.
void run_backpressure_cell(unsigned writers) {
  SCOPED_TRACE("writers=" + std::to_string(writers));
  ThreadPool pool(4);
  auto agg = make_agg(&pool);
  OverlappedCpConfig cfg;
  cfg.dirty_high_watermark = 8;
  OverlappedCpDriver driver(*agg, cfg);
  Rng preload_rng(9);
  std::uint64_t raw = 0;
  for (int round = 0; round < 16 && driver.stats().submit_stalls == 0;
       ++round) {
    driver.submit(batch(preload_rng, 20'000));
    raw += 20'000;
    driver.start_cp();
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (unsigned t = 0; t < writers; ++t) {
      threads.emplace_back([&driver, writers, round, t] {
        Rng rng(5000u * writers + 100u * static_cast<unsigned>(round) + t);
        for (int i = 0; i < 8; ++i) {
          driver.submit(batch(rng, 16));
        }
      });
    }
    for (auto& th : threads) th.join();
    raw += std::uint64_t{writers} * 8 * 16;
  }
  driver.start_cp();  // sweep the leftovers
  driver.wait_idle();
  const OverlapStats s = driver.stats();
  EXPECT_GE(s.submit_stalls, 1u);
  EXPECT_GT(s.stall_ns, 0u);
  expect_conserved(s, raw);
  EXPECT_EQ(driver.active_dirty(), 0u);
}

TEST(ConcurrentIntake, BackpressureWriters2) { run_backpressure_cell(2); }
TEST(ConcurrentIntake, BackpressureWriters4) { run_backpressure_cell(4); }
TEST(ConcurrentIntake, BackpressureWriters8) { run_backpressure_cell(8); }

// --- Emit-while-freeze race -----------------------------------------------

// The freeze takes every shard lock in id order and folds while writers
// race single-block submits into those same shards.  Control freezes
// back-to-back as fast as the drains allow, maximizing the number of
// submit/freeze boundary crossings; each submit lands wholly in one
// generation or the next, never torn across the fold.
TEST(ConcurrentIntake, EmitWhileFreezeRace) {
  ThreadPool pool(4);
  auto agg = make_agg(&pool);
  OverlappedCpDriver driver(*agg);
  constexpr unsigned kWriters = 4;
  constexpr int kSubmits = 1500;
  std::atomic<unsigned> live{kWriters};
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (unsigned t = 0; t < kWriters; ++t) {
    threads.emplace_back([&driver, &live, t] {
      Rng rng(31u + t);
      for (int i = 0; i < kSubmits; ++i) {
        driver.submit(static_cast<VolumeId>(rng.below(kVols)),
                      rng.below(25'000));
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  std::uint64_t freezes = 0;
  while (live.load(std::memory_order_acquire) > 0) {
    driver.start_cp();  // freeze whatever raced in — empty CPs included
    ++freezes;
  }
  for (auto& th : threads) th.join();
  driver.start_cp();
  driver.wait_idle();
  const OverlapStats s = driver.stats();
  expect_conserved(s, std::uint64_t{kWriters} * kSubmits);
  EXPECT_EQ(s.cps_completed, freezes + 1);
  EXPECT_EQ(driver.active_dirty(), 0u);
  // The claim space recycled cleanly across all those generations: a
  // fresh duplicate pair coalesces to exactly one winner.
  driver.submit(0, 42);
  driver.submit(0, 42);
  EXPECT_EQ(driver.active_dirty(), 1u);
  driver.start_cp();
  driver.wait_idle();
}

// Content-keyed explicit routing (the determinism oracle's mode) under
// contention: every thread owns a disjoint shard subset, so no two
// threads ever contend on a shard lock — only on the claim bitmap.
TEST(ConcurrentIntake, SubmitToShardDisjointOwners) {
  ThreadPool pool(4);
  auto agg = make_agg(&pool);
  OverlappedCpDriver driver(*agg);
  const std::size_t shards = driver.intake_shards();
  ASSERT_GE(shards, 4u);
  constexpr unsigned kWriters = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (unsigned t = 0; t < kWriters; ++t) {
    threads.emplace_back([&driver, shards, t] {
      for (int i = 0; i < kRounds; ++i) {
        for (std::size_t sh = t; sh < shards; sh += kWriters) {
          const DirtyBlock b{static_cast<VolumeId>(sh % kVols),
                             static_cast<std::uint64_t>(i) * shards + sh};
          driver.submit_to_shard(sh, std::span<const DirtyBlock>(&b, 1));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  driver.start_cp();
  driver.wait_idle();
  const OverlapStats s = driver.stats();
  expect_conserved(s, std::uint64_t{kRounds} * shards);
  EXPECT_EQ(s.blocks_coalesced, 0u);  // all (vol, logical) keys distinct
  EXPECT_EQ(driver.active_dirty(), 0u);
}

// A driver built where a destroyed one lived is a new driver: a thread
// that submitted to the old one must get a shard of the new one, however
// many shards each has.  Two threads take consecutive round-robin slots
// of an 8-shard driver, so at least one holds a shard other than 0; both
// then submit to a 1-shard driver built in the same storage.
TEST(ConcurrentIntake, ReusedDriverAddressGetsValidShard) {
  auto agg = make_agg();
  alignas(OverlappedCpDriver) std::byte storage[sizeof(OverlappedCpDriver)];
  OverlappedCpConfig wide;
  wide.intake_shards = 8;
  OverlappedCpDriver* driver = new (storage) OverlappedCpDriver(*agg, wide);

  std::promise<void> helper_submitted;
  std::promise<void> rebuilt;
  std::thread helper([&driver, &helper_submitted,
                      rebuilt_f = rebuilt.get_future()] {
    driver->submit(0, 1);
    helper_submitted.set_value();
    rebuilt_f.wait();
    driver->submit(0, 3);
  });
  helper_submitted.get_future().wait();
  driver->submit(0, 2);
  driver->start_cp();
  driver->wait_idle();
  driver->~OverlappedCpDriver();

  OverlappedCpConfig narrow;
  narrow.intake_shards = 1;
  driver = new (storage) OverlappedCpDriver(*agg, narrow);
  ASSERT_EQ(driver->intake_shards(), 1u);
  driver->submit(0, 4);
  rebuilt.set_value();
  helper.join();
  EXPECT_EQ(driver->active_dirty(), 2u);
  driver->start_cp();
  driver->wait_idle();
  driver->~OverlappedCpDriver();
}

}  // namespace
}  // namespace wafl
