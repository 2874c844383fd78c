// Unit tests for wafl::fault — the crash-point registry and the seeded
// FaultEngine — independent of the WAFL stack above them.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/crash_point.hpp"
#include "fault/fault.hpp"
#include "storage/block_store.hpp"

namespace wafl::fault {
namespace {

using Block = BlockStore::Block;

Block pattern(std::byte fill) {
  Block b;
  b.fill(fill);
  return b;
}

TEST(CrashHooks, UnarmedPointIsInert) {
  crash_hooks().disarm_all();
  EXPECT_FALSE(crash_hooks().any_armed());
  crash_hooks().hit("test.point");  // must not throw
}

TEST(CrashHooks, NthExecutionFiresAndSelfDisarms) {
  crash_hooks().arm("test.nth", 3);
  crash_hooks().hit("test.nth");
  crash_hooks().hit("test.nth");
  EXPECT_EQ(crash_hooks().hits("test.nth"), 2u);
  try {
    crash_hooks().hit("test.nth");
    FAIL() << "third execution must throw";
  } catch (const CrashPoint& cp) {
    EXPECT_EQ(cp.point(), "test.nth");
    EXPECT_EQ(cp.hit_count(), 3u);
  }
  // One crash per arm: the fired point disarmed itself.
  EXPECT_FALSE(crash_hooks().any_armed());
  crash_hooks().hit("test.nth");
}

TEST(CrashHooks, RearmReplacesTrigger) {
  crash_hooks().arm("test.rearm", 5);
  crash_hooks().hit("test.rearm");
  crash_hooks().arm("test.rearm", 1);  // replaces: next execution fires
  EXPECT_THROW(crash_hooks().hit("test.rearm"), CrashPoint);
  crash_hooks().disarm_all();
}

TEST(FaultEngine, TornWriteKeepsOldTail) {
  BlockStore store(8);
  store.write(2, pattern(std::byte{0xAA}));

  FaultPlan plan;
  plan.seed = 1;
  plan.torn_write_prob = 1.0;
  plan.torn_bytes = 100;
  plan.only_block = 2;
  FaultEngine engine(plan);
  store.set_fault_injector(&engine);
  store.write(2, pattern(std::byte{0xBB}));
  store.set_fault_injector(nullptr);

  Block got;
  store.read(2, got);
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    EXPECT_EQ(got[i], i < 100 ? std::byte{0xBB} : std::byte{0xAA}) << i;
  }
  const std::vector<FaultRecord> journal = engine.journal();
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0].kind, FaultRecord::Kind::kTorn);
  EXPECT_EQ(journal[0].block, 2u);
  EXPECT_EQ(journal[0].detail, 100u);
}

TEST(FaultEngine, DroppedWriteKeepsOldBlockButCountsTheWrite) {
  BlockStore store(8);
  store.write(1, pattern(std::byte{0x11}));
  const std::uint64_t writes0 = store.stats().block_writes;

  FaultPlan plan;
  plan.seed = 2;
  plan.dropped_write_prob = 1.0;
  FaultEngine engine(plan);
  store.set_fault_injector(&engine);
  store.write(1, pattern(std::byte{0x22}));
  store.set_fault_injector(nullptr);

  Block got;
  store.read(1, got);
  EXPECT_EQ(got[0], std::byte{0x11});
  // The write was issued (and acknowledged), so it is counted.
  EXPECT_EQ(store.stats().block_writes, writes0 + 1);
}

TEST(FaultEngine, OnlyBlockRestrictsFaults) {
  BlockStore store(8);
  FaultPlan plan;
  plan.seed = 3;
  plan.dropped_write_prob = 1.0;
  plan.only_block = 5;
  FaultEngine engine(plan);
  store.set_fault_injector(&engine);
  store.write(4, pattern(std::byte{0x44}));  // untargeted: lands
  store.write(5, pattern(std::byte{0x55}));  // targeted: dropped
  store.set_fault_injector(nullptr);

  EXPECT_TRUE(store.is_materialized(4));
  EXPECT_FALSE(store.is_materialized(5));
}

TEST(FaultEngine, WriteCountCrashLandsAfterTheFaultyWrite) {
  BlockStore store(8);
  store.write(0, pattern(std::byte{0x01}));
  store.write(1, pattern(std::byte{0x01}));

  FaultPlan plan;
  plan.seed = 4;
  plan.crash_after_writes = 2;
  plan.crash_write_fault = CrashWriteFault::kDropped;
  FaultEngine engine(plan);
  store.set_fault_injector(&engine);
  store.write(0, pattern(std::byte{0x02}));  // write 1: persists
  EXPECT_THROW(store.write(1, pattern(std::byte{0x02})), CrashPoint);
  store.set_fault_injector(nullptr);

  Block got;
  store.read(0, got);
  EXPECT_EQ(got[0], std::byte{0x02});
  store.read(1, got);
  EXPECT_EQ(got[0], std::byte{0x01});  // the crashing write was dropped
  EXPECT_TRUE(engine.crashed());
  EXPECT_FALSE(engine.armed());
  // Post-crash the engine is disarmed: recovery I/O runs honestly.
  store.set_fault_injector(&engine);
  store.write(1, pattern(std::byte{0x03}));
  store.set_fault_injector(nullptr);
  store.read(1, got);
  EXPECT_EQ(got[0], std::byte{0x03});
}

TEST(FaultEngine, ReadBitRotIsTransient) {
  BlockStore store(4);
  store.write(0, pattern(std::byte{0x00}));

  FaultPlan plan;
  plan.seed = 5;
  plan.read_bitrot_prob = 1.0;
  FaultEngine engine(plan);
  store.set_fault_injector(&engine);
  Block got;
  store.read(0, got);
  store.set_fault_injector(nullptr);

  int flipped = 0;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    if (got[i] != std::byte{0x00}) ++flipped;
  }
  EXPECT_EQ(flipped, 1);  // exactly one bit flipped...
  store.read(0, got);
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ASSERT_EQ(got[i], std::byte{0x00});  // ...and the media is unharmed
  }
}

TEST(FaultEngine, SameSeedSameJournal) {
  const auto run = [](std::uint64_t seed) {
    BlockStore store(16);
    FaultPlan plan;
    plan.seed = seed;
    plan.torn_write_prob = 0.4;
    plan.dropped_write_prob = 0.2;
    FaultEngine engine(plan);
    store.set_fault_injector(&engine);
    for (std::uint64_t b = 0; b < 16; ++b) {
      store.write(b, pattern(std::byte{0x77}));
    }
    store.set_fault_injector(nullptr);
    return engine.journal();
  };
  const std::vector<FaultRecord> a = run(42);
  const std::vector<FaultRecord> b = run(42);
  const std::vector<FaultRecord> c = run(43);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].block, b[i].block);
    EXPECT_EQ(a[i].ordinal, b[i].ordinal);
    EXPECT_EQ(a[i].detail, b[i].detail);
  }
  EXPECT_GT(a.size(), 0u);
  // A different seed gives a different fault pattern (with these probs,
  // 16 writes make a collision astronomically unlikely).
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].kind != c[i].kind || a[i].block != c[i].block ||
              a[i].detail != c[i].detail;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultyBlockStore, ForwardsFullSurfaceAndDetaches) {
  BlockStore inner(4);
  {
    FaultPlan plan;  // no faults: pure pass-through
    FaultyBlockStore faulty(inner, plan);
    EXPECT_EQ(faulty.capacity_blocks(), 4u);
    faulty.write(1, pattern(std::byte{0x09}));
    EXPECT_TRUE(faulty.is_materialized(1));
    EXPECT_EQ(faulty.materialized_blocks(), 1u);
    faulty.grow(6);
    EXPECT_EQ(faulty.capacity_blocks(), 6u);
    EXPECT_EQ(inner.capacity_blocks(), 6u);
    Block got;
    faulty.read(1, got);
    EXPECT_EQ(got[0], std::byte{0x09});
    EXPECT_EQ(faulty.stats().block_reads, 1u);
    EXPECT_EQ(inner.fault_injector(), &faulty.engine());
  }
  // Decorator death detaches its engine.
  EXPECT_EQ(inner.fault_injector(), nullptr);
}

}  // namespace
}  // namespace wafl::fault
