#include "raid/tetris.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_set>
#include <vector>

#include "raid/raid_group.hpp"
#include "util/rng.hpp"
#include "tetris_words.hpp"

namespace wafl {
namespace {

/// Occupancy helper: a set of in-use group-local VBNs.
struct Occupancy {
  std::unordered_set<Vbn> used;
  bool operator()(Vbn v) const { return used.contains(v); }
};

/// The per-VBN classification the word kernel replaced, kept as its
/// reference: `written_vbns` (group-local, inside window `tetris`,
/// ascending) and `in_use`, the pre-write occupancy of each VBN.
template <typename InUseFn>
TetrisWrite reference_build(const RaidGeometry& g, std::uint64_t tetris,
                            std::span<const Vbn> written_vbns,
                            InUseFn&& in_use) {
  const std::uint32_t d = g.data_devices();
  const Vbn base = g.tetris_base_vbn(tetris);
  const Dbn dbn_base = tetris * kTetrisStripes;

  TetrisWrite out;
  out.tetris = tetris;
  out.device_runs.resize(d);
  out.parity_runs.resize(g.parity_devices());

  std::uint32_t written_in_stripe[kTetrisStripes] = {};
  std::uint32_t in_use_in_stripe[kTetrisStripes] = {};

  for (const Vbn v : written_vbns) {
    const BlockLocation loc = g.to_location(v);
    const auto stripe_off = static_cast<std::uint32_t>(loc.dbn - dbn_base);
    ++written_in_stripe[stripe_off];
    auto& runs = out.device_runs[loc.device];
    if (!runs.empty() && runs.back().start + runs.back().length == loc.dbn) {
      ++runs.back().length;
    } else {
      runs.push_back({loc.dbn, 1});
    }
    ++out.data_blocks_written;
  }

  const Vbn window_end = base + g.blocks_per_tetris();
  for (Vbn v = base; v < window_end; ++v) {
    if (in_use(v)) {
      const BlockLocation loc = g.to_location(v);
      ++in_use_in_stripe[loc.dbn - dbn_base];
    }
  }

  const std::uint32_t p = g.parity_devices();
  for (std::uint32_t s = 0; s < kTetrisStripes; ++s) {
    const std::uint32_t w = written_in_stripe[s];
    const std::uint32_t u = in_use_in_stripe[s];
    if (w == 0) {
      ++out.untouched_stripes;
      continue;
    }
    if (u == 0 && w == d) {
      ++out.full_stripes;
    } else {
      ++out.partial_stripes;
      out.parity_read_blocks += std::min(w + p, d - w);
    }
    const Dbn pdbn = dbn_base + s;
    for (std::uint32_t pd = 0; pd < p; ++pd) {
      auto& runs = out.parity_runs[pd];
      if (!runs.empty() && runs.back().start + runs.back().length == pdbn) {
        ++runs.back().length;
      } else {
        runs.push_back({pdbn, 1});
      }
      ++out.parity_blocks_written;
    }
  }
  return out;
}

/// A random word with a varied shape: empty, full, one bit (bit 63
/// included), a single run, or uniform bits at a random density.
std::uint64_t random_word(Rng& rng) {
  switch (rng.below(6)) {
    case 0:
      return 0;
    case 1:
      return ~std::uint64_t{0};
    case 2:
      return std::uint64_t{1} << rng.below(64);
    case 3:
      return std::uint64_t{1} << 63;
    case 4: {
      const std::uint64_t lo = rng.below(64);
      const std::uint64_t len = 1 + rng.below(64 - lo);
      const std::uint64_t run =
          len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
      return run << lo;
    }
    default: {
      const double density = rng.uniform();
      std::uint64_t w = 0;
      for (int b = 0; b < 64; ++b) {
        if (rng.chance(density)) w |= std::uint64_t{1} << b;
      }
      return w;
    }
  }
}

TEST(TetrisBuilder, EmptyWindowFullStripes) {
  // Writing every block of an empty tetris => 64 full stripes, no reads.
  const RaidGeometry g(3, 1, 128);
  TetrisBuilder builder(g);
  std::vector<Vbn> writes;
  for (Vbn v = 0; v < g.blocks_per_tetris(); ++v) {
    writes.push_back(v);
  }
  const TetrisWrite tw =
      test::build_from_vbns(builder, g, 0, writes, Occupancy{});
  EXPECT_EQ(tw.full_stripes, 64u);
  EXPECT_EQ(tw.partial_stripes, 0u);
  EXPECT_EQ(tw.untouched_stripes, 0u);
  EXPECT_EQ(tw.parity_read_blocks, 0u);
  EXPECT_EQ(tw.data_blocks_written, g.blocks_per_tetris());
  EXPECT_EQ(tw.parity_blocks_written, 64u);
  // One maximal chain per data device plus one on the parity device.
  EXPECT_EQ(tw.total_chains(), 4u);
  ASSERT_EQ(tw.device_runs.size(), 3u);
  for (const auto& runs : tw.device_runs) {
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (WriteRun{0, 64}));
  }
  ASSERT_EQ(tw.parity_runs.size(), 1u);
  EXPECT_EQ(tw.parity_runs[0][0], (WriteRun{0, 64}));
}

TEST(TetrisBuilder, SingleBlockIsPartialStripe) {
  const RaidGeometry g(4, 1, 128);
  TetrisBuilder builder(g);
  const std::vector<Vbn> writes = {0};
  const TetrisWrite tw =
      test::build_from_vbns(builder, g, 0, writes, Occupancy{});
  EXPECT_EQ(tw.full_stripes, 0u);
  EXPECT_EQ(tw.partial_stripes, 1u);
  EXPECT_EQ(tw.untouched_stripes, 63u);
  // min(w + p, d - w) = min(1 + 1, 4 - 1) = 2 reads.
  EXPECT_EQ(tw.parity_read_blocks, 2u);
  EXPECT_EQ(tw.parity_blocks_written, 1u);
}

TEST(TetrisBuilder, StripeWithResidentDataIsPartial) {
  // Stripe 0 has an in-use block on device 2; writing the other blocks is
  // a partial stripe even though every free block is filled.
  const RaidGeometry g(3, 1, 128);
  TetrisBuilder builder(g);
  Occupancy occ;
  occ.used.insert(g.to_vbn({2, 0}));  // device 2, stripe 0

  std::vector<Vbn> writes = {g.to_vbn({0, 0}), g.to_vbn({1, 0})};
  std::sort(writes.begin(), writes.end());
  const TetrisWrite tw =
      test::build_from_vbns(builder, g, 0, writes, occ);
  EXPECT_EQ(tw.full_stripes, 0u);
  EXPECT_EQ(tw.partial_stripes, 1u);
  // min(w + p, d - w) = min(2 + 1, 3 - 2) = 1 read.
  EXPECT_EQ(tw.parity_read_blocks, 1u);
}

TEST(TetrisBuilder, MixedFullAndPartial) {
  const RaidGeometry g(2, 1, 128);
  TetrisBuilder builder(g);
  Occupancy occ;
  occ.used.insert(g.to_vbn({1, 5}));  // stripe 5 partially occupied

  // Write every free block of the window.
  std::vector<Vbn> writes;
  for (Vbn v = 0; v < g.blocks_per_tetris(); ++v) {
    if (!occ(v)) writes.push_back(v);
  }
  const TetrisWrite tw =
      test::build_from_vbns(builder, g, 0, writes, occ);
  EXPECT_EQ(tw.full_stripes, 63u);
  EXPECT_EQ(tw.partial_stripes, 1u);
  EXPECT_EQ(tw.untouched_stripes, 0u);
  // Device 1 has a hole at dbn 5: two chains there, one on device 0.
  ASSERT_EQ(tw.device_runs[1].size(), 2u);
  EXPECT_EQ(tw.device_runs[1][0], (WriteRun{0, 5}));
  EXPECT_EQ(tw.device_runs[1][1], (WriteRun{6, 58}));
  EXPECT_EQ(tw.device_runs[0].size(), 1u);
}

TEST(TetrisBuilder, SecondTetrisWindowOffsets) {
  const RaidGeometry g(3, 1, 256);
  TetrisBuilder builder(g);
  const Vbn base = g.tetris_base_vbn(2);
  std::vector<Vbn> writes;
  for (Vbn v = base; v < base + 64; ++v) {  // device 0's chunk of tetris 2
    writes.push_back(v);
  }
  const TetrisWrite tw =
      test::build_from_vbns(builder, g, 2, writes, Occupancy{});
  ASSERT_EQ(tw.device_runs[0].size(), 1u);
  EXPECT_EQ(tw.device_runs[0][0], (WriteRun{128, 64}));
  EXPECT_TRUE(tw.device_runs[1].empty());
  // Parity runs live in the same dbn window.
  EXPECT_EQ(tw.parity_runs[0][0], (WriteRun{128, 64}));
}

TEST(TetrisBuilder, DualParityWritesBothDevices) {
  const RaidGeometry g(4, 2, 128);
  TetrisBuilder builder(g);
  const std::vector<Vbn> writes = {0, 1};
  const TetrisWrite tw =
      test::build_from_vbns(builder, g, 0, writes, Occupancy{});
  EXPECT_EQ(tw.parity_blocks_written, 4u);  // 2 stripes x 2 parity devices
  ASSERT_EQ(tw.parity_runs.size(), 2u);
  EXPECT_EQ(tw.parity_runs[0][0], (WriteRun{0, 2}));
  EXPECT_EQ(tw.parity_runs[1][0], (WriteRun{0, 2}));
  // Per stripe: w=1, min(1 + 2, 4 - 1) = 3 reads, 2 stripes => 6.
  EXPECT_EQ(tw.parity_read_blocks, 6u);
}

TEST(TetrisBuilder, NoWrites) {
  const RaidGeometry g(3, 1, 128);
  TetrisBuilder builder(g);
  const TetrisWrite tw =
      test::build_from_vbns(builder, g, 0, {}, Occupancy{});
  EXPECT_EQ(tw.touched_stripes(), 0u);
  EXPECT_EQ(tw.untouched_stripes, 64u);
  EXPECT_EQ(tw.total_chains(), 0u);
}

TEST(RaidGroupStats, AccumulateTracksPerDevice) {
  const RaidGeometry g(3, 1, 128);
  RaidGroup rg(0, g);
  TetrisBuilder builder(g);
  std::vector<Vbn> writes;
  for (Vbn v = 0; v < 64; ++v) writes.push_back(v);  // device 0 only
  const TetrisWrite tw =
      test::build_from_vbns(builder, g, 0, writes, Occupancy{});
  rg.stats().accumulate(tw);
  EXPECT_EQ(rg.stats().data_blocks_per_device[0], 64u);
  EXPECT_EQ(rg.stats().data_blocks_per_device[1], 0u);
  EXPECT_EQ(rg.stats().parity_blocks_per_device[0], 64u);
  EXPECT_EQ(rg.stats().tetrises_written, 1u);
  EXPECT_EQ(rg.stats().partial_stripes, 64u);
  EXPECT_DOUBLE_EQ(rg.stats().full_stripe_fraction(), 0.0);

  rg.reset_stats();
  EXPECT_EQ(rg.stats().tetrises_written, 0u);
  EXPECT_EQ(rg.stats().data_blocks_per_device.size(), 3u);
}

// The word kernel against the per-VBN reference on random windows:
// written and in-use words are random and disjoint, and every TetrisWrite
// field must match.  One TetrisWrite is reused across windows, as
// RgAllocator reuses it, so stale runs from a previous window would show.
TEST(TetrisBuilder, WordKernelMatchesPerBitReference) {
  Rng rng(20181);
  for (const std::uint32_t d : {1u, 2u, 3u, 4u, 7u, 14u}) {
    for (const std::uint32_t p : {0u, 1u, 2u}) {
      const RaidGeometry g(d, p, 4 * kTetrisStripes);
      const TetrisBuilder builder(g);
      TetrisWrite tw;
      for (int iter = 0; iter < 1200; ++iter) {
        const std::uint64_t tetris = rng.below(g.tetrises());
        std::vector<std::uint64_t> written(d), in_use(d);
        for (std::uint32_t dev = 0; dev < d; ++dev) {
          written[dev] = random_word(rng);
          in_use[dev] = random_word(rng) & ~written[dev];
        }
        if (iter < 4) {
          // The first windows pin the edge cases: nothing written, every
          // block written, every block in use, bit 63 alone.
          constexpr std::uint64_t kAll = ~std::uint64_t{0};
          const std::uint64_t w[] = {0, kAll, 0, std::uint64_t{1} << 63};
          const std::uint64_t u[] = {0, 0, kAll, 0};
          std::fill(written.begin(), written.end(), w[iter]);
          std::fill(in_use.begin(), in_use.end(), u[iter]);
        }
        builder.build(tetris, written, in_use, tw);

        std::vector<Vbn> vbns;
        const Vbn base = g.tetris_base_vbn(tetris);
        for (std::uint32_t dev = 0; dev < d; ++dev) {
          for (std::uint32_t s = 0; s < kTetrisStripes; ++s) {
            if ((written[dev] >> s) & 1u) {
              vbns.push_back(base + dev * kTetrisStripes + s);
            }
          }
        }
        const TetrisWrite ref =
            reference_build(g, tetris, vbns, [&](Vbn v) {
              const Vbn off = v - base;
              return ((in_use[off / kTetrisStripes] >>
                       (off % kTetrisStripes)) & 1u) != 0;
            });
        SCOPED_TRACE(testing::Message() << "d=" << d << " p=" << p
                                        << " iter=" << iter);
        ASSERT_EQ(tw.tetris, ref.tetris);
        ASSERT_EQ(tw.device_runs, ref.device_runs);
        ASSERT_EQ(tw.parity_runs, ref.parity_runs);
        ASSERT_EQ(tw.parity_read_blocks, ref.parity_read_blocks);
        ASSERT_EQ(tw.full_stripes, ref.full_stripes);
        ASSERT_EQ(tw.partial_stripes, ref.partial_stripes);
        ASSERT_EQ(tw.untouched_stripes, ref.untouched_stripes);
        ASSERT_EQ(tw.data_blocks_written, ref.data_blocks_written);
        ASSERT_EQ(tw.parity_blocks_written, ref.parity_blocks_written);
      }
    }
  }
}

TEST(TetrisBuilderDeathTest, OverlappingWordsAbort) {
  const RaidGeometry g(3, 1, 128);
  const TetrisBuilder builder(g);
  const std::vector<std::uint64_t> written = {0, std::uint64_t{1} << 63, 0};
  const std::vector<std::uint64_t> in_use = {0, ~std::uint64_t{0} << 62, 0};
  TetrisWrite tw;
  EXPECT_DEATH(builder.build(1, written, in_use, tw),
               "writing an in-use block");
}

TEST(TetrisBuilderDeathTest, WritingInUseBlockAsserts) {
  const RaidGeometry g(3, 1, 128);
  TetrisBuilder builder(g);
  Occupancy occ;
  occ.used.insert(0);
  const std::vector<Vbn> writes = {0};
  EXPECT_DEATH(test::build_from_vbns(builder, g, 0, writes, occ), "in-use");
}

}  // namespace
}  // namespace wafl
