#include "wafl/media_config.hpp"

#include <gtest/gtest.h>

namespace wafl {
namespace {

TEST(MediaConfigFactory, MakesEachMediaType) {
  MediaConfig cfg;
  cfg.type = MediaType::kHdd;
  EXPECT_EQ(make_device(cfg, 1024)->media_type(), MediaType::kHdd);
  cfg.type = MediaType::kSsd;
  EXPECT_EQ(make_device(cfg, 1024)->media_type(), MediaType::kSsd);
  cfg.type = MediaType::kSmr;
  EXPECT_EQ(make_device(cfg, 1024)->media_type(), MediaType::kSmr);
  cfg.type = MediaType::kObjectStore;
  EXPECT_EQ(make_device(cfg, 1024)->media_type(), MediaType::kObjectStore);
}

TEST(MediaConfigFactory, SsdFtlSelection) {
  MediaConfig cfg;
  cfg.type = MediaType::kSsd;
  cfg.ssd_ftl = SsdFtl::kBlockMapped;
  auto block_mapped = make_device(cfg, 4096);
  EXPECT_NE(dynamic_cast<BlockMappedSsdModel*>(block_mapped.get()), nullptr);
  cfg.ssd_ftl = SsdFtl::kPageMapped;
  auto page_mapped = make_device(cfg, 4096);
  EXPECT_NE(dynamic_cast<SsdModel*>(page_mapped.get()), nullptr);
}

TEST(MediaConfigFactory, AzcsWrapperDeliversRequestedDataCapacity) {
  MediaConfig cfg;
  cfg.type = MediaType::kSmr;
  cfg.azcs = true;
  // The wrapper exposes 63/64 of the raw media; the factory inflates the
  // raw size so the caller gets at least the DATA capacity asked for.
  const auto dev = make_device(cfg, 10'000);
  EXPECT_GE(dev->capacity_blocks(), 10'000u);
  EXPECT_NE(dynamic_cast<AzcsDevice*>(dev.get()), nullptr);
}

TEST(MediaConfigFactory, AzcsExactRegionMultiple) {
  MediaConfig cfg;
  cfg.type = MediaType::kHdd;
  cfg.azcs = true;
  const auto dev = make_device(cfg, 63 * 100);
  EXPECT_EQ(dev->capacity_blocks(), 63u * 100u);
}

TEST(MediaGeometryView, ConveysEraseBlockAndZone) {
  MediaConfig cfg;
  cfg.type = MediaType::kSsd;
  cfg.ssd.pages_per_erase_block = 2048;
  EXPECT_EQ(media_geometry(cfg).erase_block_blocks, 2048u);

  cfg = MediaConfig{};
  cfg.type = MediaType::kSmr;
  cfg.smr.zone_blocks = 16384;
  EXPECT_EQ(media_geometry(cfg).zone_blocks, 16384u);
  EXPECT_FALSE(media_geometry(cfg).azcs);

  // With AZCS, the zone converts to data-block units (63/64).
  cfg.azcs = true;
  EXPECT_EQ(media_geometry(cfg).zone_blocks, 16384u * 63 / 64);
  EXPECT_TRUE(media_geometry(cfg).azcs);
}

}  // namespace
}  // namespace wafl
