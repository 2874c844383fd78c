// Parameterized sweep over RAID geometries: the VBN <-> (device, dbn)
// mapping must be a bijection with the chain and AA-contiguity properties
// the write allocator depends on, for every realistic shape.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "raid/raid_geometry.hpp"
#include "raid/tetris.hpp"
#include "tetris_words.hpp"

namespace wafl {
namespace {

using Shape = std::tuple<std::uint32_t /*data*/, std::uint32_t /*parity*/,
                         std::uint64_t /*device_blocks*/>;

class GeometrySweep : public ::testing::TestWithParam<Shape> {
 protected:
  RaidGeometry geometry() const {
    const auto& [d, p, blocks] = GetParam();
    return RaidGeometry(d, p, blocks);
  }
};

TEST_P(GeometrySweep, MappingIsBijective) {
  const RaidGeometry g = geometry();
  std::vector<bool> seen(g.data_blocks(), false);
  for (DeviceId d = 0; d < g.data_devices(); ++d) {
    for (Dbn dbn = 0; dbn < g.device_blocks(); ++dbn) {
      const Vbn v = g.to_vbn({d, dbn});
      ASSERT_LT(v, g.data_blocks());
      ASSERT_FALSE(seen[v]);
      seen[v] = true;
      const BlockLocation back = g.to_location(v);
      ASSERT_EQ(back.device, d);
      ASSERT_EQ(back.dbn, dbn);
    }
  }
}

TEST_P(GeometrySweep, ConsecutiveVbnsFormDeviceChains) {
  const RaidGeometry g = geometry();
  for (Vbn v = 0; v + 1 < g.data_blocks(); ++v) {
    if ((v + 1) % kTetrisStripes == 0) continue;  // chunk boundary
    const BlockLocation a = g.to_location(v);
    const BlockLocation b = g.to_location(v + 1);
    ASSERT_EQ(a.device, b.device);
    ASSERT_EQ(a.dbn + 1, b.dbn);
  }
}

TEST_P(GeometrySweep, TetrisWindowsAreContiguousVbnRanges) {
  const RaidGeometry g = geometry();
  for (std::uint64_t t = 0; t < g.tetrises(); ++t) {
    const Vbn base = g.tetris_base_vbn(t);
    for (Vbn v = base; v < base + g.blocks_per_tetris(); ++v) {
      ASSERT_EQ(g.tetris_of(v), t);
      // Every block of the window sits in the window's stripe range.
      const StripeId s = g.stripe_of(v);
      ASSERT_GE(s, t * kTetrisStripes);
      ASSERT_LT(s, (t + 1) * kTetrisStripes);
    }
  }
}

TEST_P(GeometrySweep, FullWindowWriteIsAllFullStripes) {
  const RaidGeometry g = geometry();
  TetrisBuilder builder(g);
  std::vector<Vbn> writes;
  for (Vbn v = 0; v < g.blocks_per_tetris(); ++v) {
    writes.push_back(v);
  }
  const TetrisWrite tw = test::build_from_vbns(builder, g, 0, writes,
                                               [](Vbn) { return false; });
  EXPECT_EQ(tw.full_stripes, kTetrisStripes);
  EXPECT_EQ(tw.partial_stripes, 0u);
  EXPECT_EQ(tw.parity_read_blocks, 0u);
  EXPECT_EQ(tw.data_blocks_written, g.blocks_per_tetris());
  EXPECT_EQ(tw.parity_blocks_written,
            static_cast<std::uint64_t>(kTetrisStripes) * g.parity_devices());
  // One chain per data device, one per parity device.
  EXPECT_EQ(tw.total_chains(), g.total_devices());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Values(Shape{1, 0, 128},    // single device, no parity
                      Shape{1, 1, 128},    // mirrored-ish minimal
                      Shape{2, 1, 256},    // small RAID 4
                      Shape{3, 1, 192},    // the paper's Figure 2
                      Shape{6, 1, 128},    // the paper's Figure 1
                      Shape{4, 2, 256},    // RAID-DP style double parity
                      Shape{14, 2, 64},    // wide production-like group
                      Shape{5, 3, 128}),   // triple parity
    [](const ::testing::TestParamInfo<Shape>& param_info) {
      // Built with append rather than chained operator+ (GCC 12's
      // -Werror=restrict false-positives on the rvalue-string chain).
      std::string name = "d";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_p";
      name += std::to_string(std::get<1>(param_info.param));
      name += "_b";
      name += std::to_string(std::get<2>(param_info.param));
      return name;
    });

}  // namespace
}  // namespace wafl
