#include "storage/block_store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "fault/crash_point.hpp"
#include "fault/fault.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace wafl {
namespace {

using Block = std::array<std::byte, kBlockSize>;

Block make_block(std::uint8_t fill) {
  Block b;
  b.fill(static_cast<std::byte>(fill));
  return b;
}

TEST(BlockStore, ReadBackWhatWasWritten) {
  BlockStore store(16);
  const Block in = make_block(0xAB);
  store.write(3, in);
  Block out{};
  store.read(3, out);
  EXPECT_EQ(out, in);
}

TEST(BlockStore, UnwrittenBlocksReadAsZero) {
  BlockStore store(16);
  Block out = make_block(0xFF);
  store.read(7, out);
  EXPECT_EQ(out, make_block(0x00));
}

TEST(BlockStore, OverwriteReplacesContents) {
  BlockStore store(16);
  store.write(0, make_block(0x11));
  store.write(0, make_block(0x22));
  Block out{};
  store.read(0, out);
  EXPECT_EQ(out, make_block(0x22));
}

TEST(BlockStore, CountsReadsAndWrites) {
  BlockStore store(16);
  Block buf{};
  store.write(1, make_block(1));
  store.write(2, make_block(2));
  store.read(1, buf);
  EXPECT_EQ(store.stats().block_writes, 2u);
  EXPECT_EQ(store.stats().block_reads, 1u);
  EXPECT_EQ(store.stats().total(), 3u);
  store.reset_stats();
  EXPECT_EQ(store.stats().total(), 0u);
}

TEST(BlockStore, SparseMaterialization) {
  BlockStore store(1'000'000);
  EXPECT_EQ(store.materialized_blocks(), 0u);
  store.write(999'999, make_block(5));
  EXPECT_EQ(store.materialized_blocks(), 1u);
  EXPECT_TRUE(store.is_materialized(999'999));
  EXPECT_FALSE(store.is_materialized(0));
}

TEST(BlockStore, CorruptFlipsExactlyOneBit) {
  BlockStore store(4);
  store.write(2, make_block(0x00));
  store.corrupt(2, 12345);
  Block out{};
  store.read(2, out);
  int set_bits = 0;
  for (const std::byte b : out) {
    set_bits += __builtin_popcount(static_cast<unsigned>(b));
  }
  EXPECT_EQ(set_bits, 1);
  EXPECT_EQ(out[12345 / 8], static_cast<std::byte>(1u << (12345 % 8)));
}

TEST(BlockStore, CorruptTwiceRestores) {
  BlockStore store(4);
  store.write(0, make_block(0x3C));
  store.corrupt(0, 99);
  store.corrupt(0, 99);
  Block out{};
  store.read(0, out);
  EXPECT_EQ(out, make_block(0x3C));
}

TEST(BlockStore, PeekBypassesCountersAndInjector) {
  BlockStore store(8);
  store.write(5, make_block(0x5A));
  store.reset_stats();

  fault::FaultPlan plan;
  plan.seed = 1;
  plan.read_bitrot_prob = 1.0;  // every counted read would rot
  fault::FaultEngine engine(plan);
  store.set_fault_injector(&engine);
  Block out{};
  store.peek(5, out);
  store.set_fault_injector(nullptr);

  EXPECT_EQ(out, make_block(0x5A));  // no rot: peek is the harness's view
  EXPECT_EQ(store.stats().total(), 0u);
  EXPECT_TRUE(engine.journal().empty());
}

TEST(BlockStore, CopyContentsFromDeepCopies) {
  BlockStore src(16);
  src.write(2, make_block(0x22));
  src.write(9, make_block(0x99));

  BlockStore dst(16);
  dst.write(1, make_block(0x11));  // replaced wholesale by the copy
  dst.copy_contents_from(src);

  // Contents are replaced; counters are the destination's own history.
  EXPECT_EQ(dst.stats().block_writes, 1u);
  EXPECT_EQ(dst.materialized_blocks(), 2u);
  EXPECT_FALSE(dst.is_materialized(1));
  Block out{};
  dst.peek(2, out);
  EXPECT_EQ(out, make_block(0x22));
  // Deep copy: mutating the source afterwards must not leak through.
  src.write(2, make_block(0xEE));
  dst.peek(2, out);
  EXPECT_EQ(out, make_block(0x22));
}

TEST(BlockStoreGrowth, GrowRaisesCapacityAndKeepsContents) {
  BlockStore store(4);
  store.write(3, make_block(0x33));
  store.grow(10);
  EXPECT_EQ(store.capacity_blocks(), 10u);
  Block out{};
  store.read(3, out);
  EXPECT_EQ(out, make_block(0x33));
  store.write(9, make_block(0x44));  // newly addressable
  EXPECT_TRUE(store.is_materialized(9));
}

TEST(BlockStoreGrowth, TornWriteInGrownRange) {
  // Growth (§3.1) then a torn first write of a newly addressable block:
  // the persisted prefix lands over the sparse-zero "old contents".
  BlockStore inner(4);
  fault::FaultPlan plan;
  plan.seed = 2;
  plan.torn_write_prob = 1.0;
  plan.torn_bytes = 96;
  plan.only_block = 6;
  fault::FaultyBlockStore faulty(inner, plan);
  faulty.grow(8);
  EXPECT_EQ(faulty.capacity_blocks(), 8u);

  faulty.write(6, make_block(0xC6));
  Block out{};
  inner.peek(6, out);
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ASSERT_EQ(out[i], i < 96 ? std::byte{0xC6} : std::byte{0x00}) << i;
  }
}

TEST(BlockStoreGrowth, WriteCountCrashInGrownRange) {
  BlockStore inner(2);
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.crash_after_writes = 2;
  plan.crash_write_fault = fault::CrashWriteFault::kDropped;
  fault::FaultyBlockStore faulty(inner, plan);
  faulty.grow(4);

  faulty.write(2, make_block(0xA2));
  EXPECT_THROW(faulty.write(3, make_block(0xA3)), fault::CrashPoint);
  // The pre-crash write in the grown range survived; the crashing one
  // was dropped; capacity survives the "reboot".
  EXPECT_TRUE(faulty.is_materialized(2));
  EXPECT_FALSE(faulty.is_materialized(3));
  EXPECT_EQ(inner.capacity_blocks(), 4u);
}

TEST(BlockStoreConcurrent, DisjointSlotWritersLandIntact) {
  // The single-writer-per-slot contract: many threads writing DISTINCT
  // blocks concurrently must each land their full payload.  This is the
  // access pattern of the parallel metafile flush and TopAA commits.
  BlockStore store(4096);
  ThreadPool pool(4);
  pool.parallel_for(0, 4096, /*chunk=*/64, [&](std::size_t b) {
    store.write(b, make_block(static_cast<std::uint8_t>(b & 0xFF)));
  });
  for (std::uint64_t b = 0; b < 4096; ++b) {
    Block out{};
    store.peek(b, out);
    ASSERT_EQ(out, make_block(static_cast<std::uint8_t>(b & 0xFF)))
        << "block " << b;
  }
}

TEST(BlockStoreConcurrent, CountersExactUnderConcurrency) {
  // The sharded relaxed counters must not lose increments: the totals are
  // the CP accounting the benches and acceptance gates read.
  BlockStore store(8192);
  ThreadPool pool(4);
  pool.parallel_for(0, 8192, /*chunk=*/32, [&](std::size_t b) {
    store.write(b, make_block(1));
  });
  pool.parallel_for(0, 8192, /*chunk=*/32, [&](std::size_t b) {
    Block out{};
    store.read(b, out);
    store.read(b, out);
  });
  EXPECT_EQ(store.stats().block_writes, 8192u);
  EXPECT_EQ(store.stats().block_reads, 2u * 8192u);
}

TEST(BlockStoreConcurrent, ConcurrentReadersOfOneBlock) {
  // Read-read sharing on a single slot is unrestricted; every reader sees
  // the (quiescent) payload.
  BlockStore store(4);
  store.write(2, make_block(0x7E));
  std::vector<std::thread> readers;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&store, &ok] {
      for (int i = 0; i < 1000; ++i) {
        Block out{};
        store.read(2, out);
        if (out == make_block(0x7E)) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(ok.load(), 4000);
}

TEST(BlockStoreConcurrent, ParallelLoadStyleMixedTraffic) {
  // The mount-path shape: concurrent reads of disjoint blocks interleaved
  // with writes to OTHER disjoint blocks (volumes load while the aggregate
  // flushes elsewhere).  Materialization races on the shard maps are the
  // risk; contents and counters must come out exact.
  BlockStore store(2048);
  for (std::uint64_t b = 0; b < 1024; ++b) {
    store.write(b, make_block(static_cast<std::uint8_t>(b & 0xFF)));
  }
  store.reset_stats();
  ThreadPool pool(4);
  std::atomic<std::uint64_t> mismatches{0};
  pool.parallel_for(0, 2048, /*chunk=*/16, [&](std::size_t b) {
    if (b < 1024) {
      Block out{};
      store.read(b, out);
      if (out != make_block(static_cast<std::uint8_t>(b & 0xFF))) {
        mismatches.fetch_add(1);
      }
    } else {
      store.write(b, make_block(static_cast<std::uint8_t>(b & 0xFF)));
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(store.stats().block_reads, 1024u);
  EXPECT_EQ(store.stats().block_writes, 1024u);
}

TEST(BlockStoreDeathTest, OutOfRangeWriteAsserts) {
  BlockStore store(4);
  const Block b = make_block(0);
  EXPECT_DEATH(store.write(4, b), "out of range");
}

TEST(BlockStoreDeathTest, CorruptUnwrittenAsserts) {
  BlockStore store(4);
  EXPECT_DEATH(store.corrupt(1, 0), "unwritten");
}

}  // namespace
}  // namespace wafl
