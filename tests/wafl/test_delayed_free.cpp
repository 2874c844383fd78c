#include "wafl/delayed_free.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace wafl {
namespace {

TEST(DelayedFreeLog, Construction) {
  DelayedFreeLog log(10 * kBitsPerBitmapBlock);
  EXPECT_EQ(log.region_count(), 10u);
  EXPECT_EQ(log.pending_total(), 0u);
  EXPECT_EQ(log.drain_richest(), std::nullopt);
  EXPECT_TRUE(log.validate());
}

TEST(DelayedFreeLog, RegionMapping) {
  DelayedFreeLog log(4096, /*region_blocks=*/1024);
  EXPECT_EQ(log.region_count(), 4u);
  EXPECT_EQ(log.region_of(0), 0u);
  EXPECT_EQ(log.region_of(1023), 0u);
  EXPECT_EQ(log.region_of(1024), 1u);
  EXPECT_EQ(log.region_of(4095), 3u);
}

TEST(DelayedFreeLog, LogAndDrainSingleRegion) {
  DelayedFreeLog log(4096, 1024);
  log.log_free(100);
  log.log_free(200);
  log.log_free(300);
  EXPECT_EQ(log.pending_total(), 3u);
  EXPECT_EQ(log.pending_in_region(0), 3u);

  const auto drain = log.drain_richest();
  ASSERT_TRUE(drain.has_value());
  EXPECT_EQ(drain->region, 0u);
  EXPECT_EQ(drain->vbns, (std::vector<Vbn>{100, 200, 300}));
  EXPECT_EQ(log.pending_total(), 0u);
  EXPECT_TRUE(log.validate());
}

TEST(DelayedFreeLog, DrainsRichestFirstWithinErrorBound) {
  const std::uint32_t region_blocks = 1024;
  DelayedFreeLog log(64 * region_blocks, region_blocks);
  Rng rng(3);
  std::map<std::uint32_t, std::uint32_t> truth;
  for (std::uint32_t r = 0; r < 64; ++r) {
    const auto n = static_cast<std::uint32_t>(rng.below(region_blocks));
    truth[r] = n;
    for (std::uint32_t i = 0; i < n; ++i) {
      log.log_free(static_cast<Vbn>(r) * region_blocks + i);
    }
  }
  ASSERT_TRUE(log.validate());

  // Every drain must return a region within one bin width of the current
  // richest (the HBPS guarantee transplanted to delayed-free scores).
  const std::uint32_t bin_width =
      std::max<std::uint32_t>(1, region_blocks / kHbpsBinCount);
  while (log.pending_total() > 0) {
    std::uint32_t best = 0;
    for (const auto& [r, n] : truth) {
      best = std::max(best, n);
    }
    const auto drain = log.drain_richest();
    ASSERT_TRUE(drain.has_value());
    EXPECT_GE(truth[drain->region] + bin_width, best);
    EXPECT_EQ(drain->vbns.size(), truth[drain->region]);
    truth[drain->region] = 0;
  }
  EXPECT_TRUE(log.validate());
  EXPECT_EQ(log.drain_richest(), std::nullopt);
}

TEST(DelayedFreeLog, RegionRefillsAfterDrain) {
  DelayedFreeLog log(4096, 1024);
  log.log_free(5);
  auto d1 = log.drain_richest();
  ASSERT_TRUE(d1.has_value());
  log.log_free(6);
  log.log_free(7);
  const auto d2 = log.drain_richest();
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->region, 0u);
  EXPECT_EQ(d2->vbns.size(), 2u);
}

TEST(DelayedFreeLog, ManyRegionsChurn) {
  const std::uint32_t region_blocks = 256;
  DelayedFreeLog log(2048 * region_blocks, region_blocks);
  Rng rng(9);
  std::uint64_t logged = 0, drained = 0;
  std::vector<std::uint32_t> counts(2048, 0);
  for (int step = 0; step < 20'000; ++step) {
    if (rng.chance(0.8)) {
      const auto r = static_cast<std::uint32_t>(rng.below(2048));
      if (counts[r] < region_blocks) {
        log.log_free(static_cast<Vbn>(r) * region_blocks + counts[r]);
        ++counts[r];
        ++logged;
      }
    } else {
      const auto d = log.drain_richest();
      if (d.has_value()) {
        drained += d->vbns.size();
        counts[d->region] = 0;
      }
    }
  }
  EXPECT_EQ(log.pending_total(), logged - drained);
  EXPECT_TRUE(log.validate());
  // Drain dry.
  while (log.drain_richest().has_value()) {
  }
  EXPECT_EQ(log.pending_total(), 0u);
}

TEST(DelayedFreeLogDeathTest, OverfillingRegionAsserts) {
  DelayedFreeLog log(1024, 1024);
  for (Vbn v = 0; v < 1024; ++v) {
    log.log_free(v);
  }
  EXPECT_DEATH(log.log_free(0), "more delayed frees");
}

}  // namespace
}  // namespace wafl
